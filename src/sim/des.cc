#include "sim/des.h"

#include <functional>
#include <queue>

#include "base/logging.h"
#include "obs/families.h"
#include "obs/span.h"

namespace sevf::sim {

Duration
ReplayResult::meanCompletion() const
{
    SEVF_CHECK(!completion.empty());
    i64 sum = 0;
    for (Duration d : completion) {
        sum += d.ns();
    }
    return Duration(sum / static_cast<i64>(completion.size()));
}

Duration
ReplayResult::maxCompletion() const
{
    SEVF_CHECK(!completion.empty());
    Duration best = completion.front();
    for (Duration d : completion) {
        best = maxTime(best, d);
    }
    return best;
}

namespace {

/** Cursor over one VM's trace. */
struct VmCursor {
    std::size_t vm;
    std::size_t next_step;
    TimePoint clock;
};

struct Later {
    bool
    operator()(const VmCursor &a, const VmCursor &b) const
    {
        if (a.clock != b.clock) {
            return b.clock < a.clock;
        }
        // Deterministic tie-break by VM index.
        return b.vm < a.vm;
    }
};

} // namespace

ReplayResult
replayConcurrent(const std::vector<BootTrace> &traces, i64 stagger_ns)
{
    ReplayResult result;
    result.completion.assign(traces.size(), Duration::zero());
    result.psp_wait.assign(traces.size(), Duration::zero());

    FifoResource psp;
    std::priority_queue<VmCursor, std::vector<VmCursor>, Later> ready;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        ready.push({i, 0, Duration(stagger_ns * static_cast<i64>(i))});
    }

    // Observability: the replay session gets its own trace track, and
    // outstanding-request completion times let us derive the PSP queue
    // depth at every arrival (arrivals are nondecreasing, so a min-heap
    // of completions is exact).
    const u64 obs_session =
        obs::tracingEnabled() ? obs::newLaunchId() : 0;
    const bool metrics_on = obs::metricsEnabled();
    std::priority_queue<i64, std::vector<i64>, std::greater<i64>> outstanding;
    i64 peak_depth = 0;
    i64 last_depth = 0;

    while (!ready.empty()) {
        VmCursor cur = ready.top();
        ready.pop();

        const std::vector<Step> &steps = traces[cur.vm].steps();
        if (cur.next_step >= steps.size()) {
            result.completion[cur.vm] = cur.clock;
            continue;
        }

        const Step &step = steps[cur.next_step];
        switch (step.kind) {
          case StepKind::kCpu:
          case StepKind::kNet:
            // Independent resources: VMs overlap freely.
            cur.clock += step.duration;
            break;
          case StepKind::kPsp: {
            // FIFO through the single PSP core. Because we always advance
            // the earliest VM, arrivals are seen in nondecreasing order.
            TimePoint done = psp.acquire(cur.clock, step.duration);
            Duration waited = done - cur.clock - step.duration;
            result.psp_wait[cur.vm] += waited;
            if (obs_session != 0 || metrics_on) {
                while (!outstanding.empty() &&
                       outstanding.top() <= cur.clock.ns()) {
                    outstanding.pop();
                }
                outstanding.push(done.ns());
                i64 depth = static_cast<i64>(outstanding.size());
                peak_depth = depth > peak_depth ? depth : peak_depth;
                last_depth = depth;
                if (obs_session != 0) {
                    obs::simCounter(obs_session, "psp_queue_depth",
                                    static_cast<u64>(cur.clock.ns()), depth);
                }
                obs::kPspWaitNs.observe(static_cast<u64>(waited.ns()));
            }
            cur.clock = done;
            break;
          }
        }
        cur.next_step++;
        ready.push(cur);
    }

    obs::kPspQueueDepth.set(last_depth);
    obs::kPspQueueDepthPeak.setMax(peak_depth);
    if (obs_session != 0 && peak_depth > 0) {
        obs::simCounter(obs_session, "psp_queue_depth",
                        static_cast<u64>(psp.freeAt().ns()), 0);
    }

    return result;
}

} // namespace sevf::sim
