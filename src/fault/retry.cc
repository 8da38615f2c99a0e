#include "fault/retry.h"

#include <algorithm>

#include "obs/families.h"
#include "obs/span.h"

namespace sevf::fault {

u64
backoffDelayNs(const RetryPolicy &policy, u32 next_attempt, Rng &rng)
{
    // Exponential: base * 2^(k) for the k-th backoff. max_delay_ns is a
    // hard bound on the returned delay (RELIABILITY.md: "cap on any
    // single delay"), so jittered delays are clamped again below —
    // near the cap the jitter distribution is one-sided.
    u32 k = next_attempt >= 2 ? next_attempt - 2 : 0;
    u64 delay = policy.base_delay_ns;
    for (u32 i = 0; i < k; ++i) {
        if (delay >= policy.max_delay_ns / 2) {
            delay = policy.max_delay_ns;
            break;
        }
        delay *= 2;
    }
    delay = std::min(delay, policy.max_delay_ns);
    double jitter = std::clamp(policy.jitter, 0.0, 1.0);
    if (jitter > 0.0 && delay > 0) {
        // Uniform in [1-jitter, 1+jitter).
        double factor = 1.0 - jitter + 2.0 * jitter * rng.nextDouble();
        delay = static_cast<u64>(static_cast<double>(delay) * factor);
        delay = std::min(delay, policy.max_delay_ns);
    }
    return delay;
}

void
registerRetryMetrics(const char *op)
{
    obs::kRetryAttempts.metric(op);
    obs::kRetryBackoffNs.metric(op);
    obs::kRetryExhausted.metric(op);
}

void
noteRetryOutcome(const char *op, u32 attempts, u64 backoff_ns,
                 bool exhausted)
{
    if (attempts > 1) {
        // Only loops that actually retried get a trace span; the happy
        // path must not grow a span per PSP command.
        SEVF_SPAN("retry.backoff", "op", op);
    }
    obs::kRetryAttempts.add(op, attempts);
    if (backoff_ns != 0) {
        obs::kRetryBackoffNs.add(op, backoff_ns);
    }
    if (exhausted) {
        obs::kRetryExhausted.add(op);
    }
}

} // namespace sevf::fault
