/**
 * @file
 * Host-side parallel execution layer.
 *
 * The paper's dominant launch cost is pre-encryption + out-of-band
 * hashing of the guest image (Fig 4), work that is embarrassingly
 * parallel at page granularity: XEX tweaks restart at every 4 KiB page
 * and the launch digest folds per-page SHA-256 digests. This module
 * provides the one reusable primitive those paths need - a persistent
 * worker pool with a chunked parallelFor - behind a process-wide
 * host-thread knob (LaunchRequest::host_threads).
 *
 * Invariants the callers rely on:
 *  - parallelFor(begin, end, grain, fn) covers [begin, end) exactly
 *    once with disjoint chunks of at most @p grain indices; chunk
 *    boundaries depend only on (begin, end, grain), never on the
 *    thread count, so any chunk-local results combined in index order
 *    are bit-for-bit identical at every host_threads value.
 *  - hostThreads() == 1 (the default) never touches a worker thread:
 *    fn runs inline on the caller, making the serial path the trivial
 *    special case rather than a separate code path.
 *  - Exceptions thrown by fn are captured and rethrown on the calling
 *    thread after all chunks finish (first one wins).
 *
 * Locking discipline: the pool's internal state is annotated with
 * base/thread_annotations.h (SEVF_GUARDED_BY on every mutex-protected
 * field) and the global acquisition order — call_mu before mu — is
 * declared in tools/lock-order.txt; both are enforced by Clang's
 * -Wthread-safety (SEVF_THREAD_SAFETY=ON) and sevf_lint's
 * guarded-by/lock-order passes on every test run.
 */
#ifndef SEVF_BASE_PARALLEL_H_
#define SEVF_BASE_PARALLEL_H_

#include <functional>

#include "base/types.h"

namespace sevf::base {

/** Chunk-local worker: processes indices [chunk_begin, chunk_end). */
using ChunkFn = std::function<void(u64 chunk_begin, u64 chunk_end)>;

/**
 * A fixed-size pool of persistent worker threads. threads() counts the
 * calling thread too: ThreadPool(4) spawns 3 workers and the caller
 * joins in, so parallelFor saturates exactly `threads` cores. A pool
 * of 1 spawns nothing.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return threads_; }

    /**
     * Run @p fn over [begin, end) in disjoint chunks of at most
     * @p grain indices (grain 0 is treated as 1). Blocks until every
     * chunk completed; rethrows the first exception any chunk raised.
     * Concurrent parallelFor calls on the same pool are serialized.
     */
    void parallelFor(u64 begin, u64 end, u64 grain, const ChunkFn &fn);

  private:
    struct Impl;
    Impl *impl_;
    unsigned threads_;
};

/**
 * Process-wide host-thread knob. Defaults to 1 (fully serial); 0 also
 * means serial. The launch layer sets it from LaunchRequest::host_threads
 * for the duration of a launch via ScopedHostThreads.
 */
unsigned hostThreads();
void setHostThreads(unsigned n);

/** std::thread::hardware_concurrency with a floor of 1. */
unsigned hardwareThreads();

/** RAII host-thread override (launches, benches, tests). */
class ScopedHostThreads
{
  public:
    explicit ScopedHostThreads(unsigned n) : previous_(hostThreads())
    {
        setHostThreads(n);
    }
    ~ScopedHostThreads() { setHostThreads(previous_); }
    ScopedHostThreads(const ScopedHostThreads &) = delete;
    ScopedHostThreads &operator=(const ScopedHostThreads &) = delete;

  private:
    unsigned previous_;
};

/**
 * Convenience: run @p fn over [begin, end) on the shared process pool
 * sized to hostThreads(). With hostThreads() == 1 (or a range of at
 * most one chunk) this degenerates to a plain inline loop.
 */
void parallelFor(u64 begin, u64 end, u64 grain, const ChunkFn &fn);

/**
 * Optional per-job context propagation, used by the observability layer
 * to carry the calling thread's open trace span into worker threads so
 * spans opened inside chunk bodies nest under it. parallelFor calls
 * capture() once on the submitting thread; every thread that executes
 * chunks (workers and the caller) brackets its chunk-claiming session
 * with enter(token) / exit(saved). base stays ignorant of what the
 * token means — it is an opaque u64.
 */
struct WorkerContextHooks {
    u64 (*capture)() = nullptr;      ///< on the submitting thread
    u64 (*enter)(u64 token) = nullptr; ///< install token; returns prior state
    void (*exit)(u64 saved) = nullptr; ///< restore prior state
};

/** Install the process-wide hooks (call once at startup; not races-safe). */
void setWorkerContextHooks(WorkerContextHooks hooks);

} // namespace sevf::base

#endif // SEVF_BASE_PARALLEL_H_
