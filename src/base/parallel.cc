#include "base/parallel.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "base/mutex.h"

namespace sevf::base {

namespace {

/**
 * Set while a thread is executing chunks of a parallelFor. A nested
 * parallelFor from inside a chunk body must not re-enter the pool
 * (the outer call holds the pool's call lock), so the free function
 * degrades nested calls to the inline serial loop.
 */
thread_local bool tl_in_parallel_region = false;

std::atomic<unsigned> g_host_threads{1};

// WorkerContextHooks, stored as individual atomics so claimChunks can
// read them without a lock. Installed once at startup (obs layer).
std::atomic<u64 (*)()> g_ctx_capture{nullptr};
std::atomic<u64 (*)(u64)> g_ctx_enter{nullptr};
std::atomic<void (*)(u64)> g_ctx_exit{nullptr};

u64
captureWorkerContext()
{
    u64 (*capture)() = g_ctx_capture.load(std::memory_order_acquire);
    return capture ? capture() : 0;
}

void
runSerial(u64 begin, u64 end, u64 grain, const ChunkFn &fn)
{
    for (u64 lo = begin; lo < end; lo += grain) {
        fn(lo, std::min(lo + grain, end));
    }
}

} // namespace

struct ThreadPool::Impl {
    /**
     * One parallelFor call. The caller fills it in before publishing it
     * under mu, and only the cursor and the completion count change
     * after that. A worker claims chunks only from the job it took under
     * mu and keeps that job alive: one that wakes after its job finished
     * finds the cursor past end, claims nothing, and never reads the
     * next job's descriptor.
     */
    struct Job {
        u64 end = 0;
        u64 grain = 1;
        u64 total_chunks = 0;
        const ChunkFn *fn = nullptr;
        u64 ctx_token = 0; //!< WorkerContextHooks token
        std::atomic<u64> cursor{0};
        u64 completed_chunks = 0; //!< guarded by Impl::mu
    };

    Mutex call_mu; //!< serializes parallelFor invocations; taken before mu

    Mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::vector<std::thread> workers;
    bool shutdown SEVF_GUARDED_BY(mu) = false;

    // The current job, null while idle. Workers claim disjoint
    // [cursor, cursor+grain) chunks with a lock-free fetch_add; the
    // caller participates too, so a pool of N uses exactly N threads.
    u64 generation SEVF_GUARDED_BY(mu) = 0;
    std::shared_ptr<Job> job SEVF_GUARDED_BY(mu);
    std::exception_ptr error SEVF_GUARDED_BY(mu);

    // Reads of the job descriptor are lock-free: it is immutable once
    // published, and taking the job under mu orders them after the
    // caller's writes. completed_chunks is updated under mu.
    void
    claimChunks(Job &j) SEVF_NO_THREAD_SAFETY_ANALYSIS
    {
        u64 ctx_saved = 0;
        u64 (*ctx_enter)(u64) = g_ctx_enter.load(std::memory_order_acquire);
        if (ctx_enter != nullptr) {
            ctx_saved = ctx_enter(j.ctx_token);
        }
        tl_in_parallel_region = true;
        u64 local_done = 0;
        while (true) {
            u64 lo = j.cursor.fetch_add(j.grain, std::memory_order_relaxed);
            if (lo >= j.end) {
                break;
            }
            u64 hi = std::min(lo + j.grain, j.end);
            try {
                (*j.fn)(lo, hi);
            } catch (...) {
                MutexLock lock(mu);
                if (!error) {
                    error = std::current_exception();
                }
            }
            ++local_done;
        }
        tl_in_parallel_region = false;
        if (ctx_enter != nullptr) {
            void (*ctx_exit)(u64) = g_ctx_exit.load(std::memory_order_acquire);
            if (ctx_exit != nullptr) {
                ctx_exit(ctx_saved);
            }
        }
        if (local_done > 0) {
            MutexLock lock(mu);
            j.completed_chunks += local_done;
            if (j.completed_chunks == j.total_chunks) {
                cv_done.notify_all();
            }
        }
    }

    void
    workerLoop()
    {
        u64 seen_generation = 0;
        while (true) {
            std::shared_ptr<Job> taken;
            {
                MutexLock lock(mu);
                // Explicit wait loop (not a predicate lambda) so the
                // thread-safety analysis sees every guarded read made
                // with mu held.
                while (!shutdown && !(job && generation != seen_generation)) {
                    cv_work.wait(lock.native());
                }
                if (shutdown) {
                    return;
                }
                seen_generation = generation;
                taken = job;
            }
            claimChunks(*taken);
        }
    }
};

ThreadPool::ThreadPool(unsigned threads)
    : impl_(new Impl), threads_(threads == 0 ? 1 : threads)
{
    for (unsigned i = 1; i < threads_; ++i) {
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(impl_->mu);
        impl_->shutdown = true;
    }
    impl_->cv_work.notify_all();
    for (std::thread &w : impl_->workers) {
        w.join();
    }
    delete impl_;
}

void
ThreadPool::parallelFor(u64 begin, u64 end, u64 grain, const ChunkFn &fn)
{
    if (end <= begin) {
        return;
    }
    grain = std::max<u64>(grain, 1);
    u64 total = (end - begin + grain - 1) / grain;
    if (threads_ == 1 || total == 1) {
        runSerial(begin, end, grain, fn);
        return;
    }

    MutexLock call_lock(impl_->call_mu);
    auto job = std::make_shared<Impl::Job>();
    job->end = end;
    job->grain = grain;
    job->total_chunks = total;
    job->fn = &fn;
    job->ctx_token = captureWorkerContext();
    job->cursor.store(begin, std::memory_order_relaxed);
    {
        MutexLock lock(impl_->mu);
        impl_->job = job;
        impl_->error = nullptr;
        ++impl_->generation;
    }
    impl_->cv_work.notify_all();

    impl_->claimChunks(*job);

    std::exception_ptr first_error;
    {
        MutexLock lock(impl_->mu);
        while (job->completed_chunks != total) {
            impl_->cv_done.wait(lock.native());
        }
        impl_->job = nullptr;
        first_error = impl_->error;
        impl_->error = nullptr;
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

unsigned
hostThreads()
{
    return g_host_threads.load(std::memory_order_relaxed);
}

void
setHostThreads(unsigned n)
{
    g_host_threads.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
#ifdef __linux__
    // Respect the CPU affinity mask (containers, taskset): the usable
    // parallelism can be far below the machine's core count, and sizing
    // pools past it only adds contention.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        unsigned allowed = static_cast<unsigned>(CPU_COUNT(&mask));
        if (allowed != 0 && (n == 0 || allowed < n)) {
            n = allowed;
        }
    }
#endif
    return n == 0 ? 1 : n;
}

namespace {

/**
 * Shared process pool, lazily sized to the current hostThreads()
 * value and rebuilt only when the knob changes. Returned by value as a
 * shared_ptr so a caller still running on the old pool keeps it alive
 * if another thread changes the knob mid-call.
 */
struct SharedPoolState {
    Mutex mu;
    std::shared_ptr<ThreadPool> pool SEVF_GUARDED_BY(mu);
};

SharedPoolState &
sharedPoolState()
{
    static SharedPoolState state;
    return state;
}

std::shared_ptr<ThreadPool>
sharedPool(unsigned threads)
{
    SharedPoolState &state = sharedPoolState();
    MutexLock lock(state.mu);
    if (!state.pool || state.pool->threads() != threads) {
        state.pool = std::make_shared<ThreadPool>(threads);
    }
    return state.pool;
}

} // namespace

void
setWorkerContextHooks(WorkerContextHooks hooks)
{
    g_ctx_capture.store(hooks.capture, std::memory_order_release);
    g_ctx_enter.store(hooks.enter, std::memory_order_release);
    g_ctx_exit.store(hooks.exit, std::memory_order_release);
}

void
parallelFor(u64 begin, u64 end, u64 grain, const ChunkFn &fn)
{
    if (end <= begin) {
        return;
    }
    grain = std::max<u64>(grain, 1);
    unsigned threads = hostThreads();
    u64 total = (end - begin + grain - 1) / grain;
    if (threads <= 1 || total <= 1 || tl_in_parallel_region) {
        runSerial(begin, end, grain, fn);
        return;
    }
    sharedPool(threads)->parallelFor(begin, end, grain, fn);
}

} // namespace sevf::base
