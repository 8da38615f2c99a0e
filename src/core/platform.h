/**
 * @file
 * The simulated host platform: one EPYC-class machine with a single PSP,
 * a key server relationship, a cost model, and a system-physical address
 * allocator handing each VM a distinct window (which is what makes XEX
 * ciphertexts VM-unique).
 */
#ifndef SEVF_CORE_PLATFORM_H_
#define SEVF_CORE_PLATFORM_H_

#include <atomic>
#include <memory>

#include "psp/key_server.h"
#include "psp/psp.h"
#include "sim/cost_model.h"

namespace sevf::cache {
class TemplateCache;
}

namespace sevf::core {

class Platform
{
  public:
    explicit Platform(sim::CostParams params = sim::CostParams::calibrated(),
                      u64 seed = 0x7313);
    ~Platform();

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    psp::KeyServer &keyServer() { return key_server_; }
    psp::Psp &psp() { return *psp_; }
    const sim::CostModel &cost() const { return cost_; }

    /** Reserve a fresh SPA window of at least @p size bytes. */
    Spa allocateSpaWindow(u64 size);

    /**
     * This platform's launch-template cache (cache/template_cache.h).
     * Strategies consult it on every launch unless the request opts
     * out; sevf_boot's --cache-* flags configure it.
     */
    cache::TemplateCache &templateCache() { return *template_cache_; }

  private:
    psp::KeyServer key_server_;
    sim::CostModel cost_;
    std::unique_ptr<psp::Psp> psp_;
    std::unique_ptr<cache::TemplateCache> template_cache_;
    /** Atomic: concurrent launches allocate windows without a lock. */
    std::atomic<Spa> next_spa_{0x100000000ull};
};

} // namespace sevf::core

#endif // SEVF_CORE_PLATFORM_H_
