/**
 * @file
 * Maximum-sustainable-throughput search.
 *
 * The paper "sets the packet rate at which we get the maximum
 * throughput" (Sec. 4). Open-loop queues are work-conserving, so
 * offering well beyond the analytic capacity estimate and measuring
 * what completes gives the capacity directly; the search only has to
 * confirm saturation (achieved << offered) and escalate otherwise.
 */

#ifndef SNIC_CORE_THROUGHPUT_SEARCH_HH
#define SNIC_CORE_THROUGHPUT_SEARCH_HH

#include "core/experiment.hh"

namespace snic::core {

/** Capacity of one testbed configuration. */
struct Capacity
{
    double gbps = 0.0;         ///< goodput units (figures)
    double requestGbps = 0.0;  ///< request-byte units (search/load)
    double rps = 0.0;
    /** Measurement windows the search ran (> 1 means the first
     *  offer did not saturate and the search escalated). */
    int attempts = 0;
    /** True when the final window confirmed saturation (achieved
     *  clearly below offered) or the wire itself was the limit. */
    bool saturated = false;
};

/**
 * Measure the capacity of @p testbed.
 */
Capacity findCapacity(Testbed &testbed, const ExperimentOptions &opts);

class Rack;

/**
 * Rack-aggregate capacity: the same escalate-until-saturated search
 * over Rack::measure, with the wire ceiling scaled to M uplinks.
 * The returned units are rack totals, not per-server.
 */
Capacity findCapacity(Rack &rack, const ExperimentOptions &opts);

/**
 * The procedure's second step: measure @p unit (a Testbed or a Rack)
 * at its load point — the workload's pinned operating load factor
 * (OvS's 10%/100% traffic-load configurations), else opts.loadFactor,
 * of the request-basis capacity @p cap, near but below saturation —
 * over a window sized for ~targetSamples at the capacity's rps.
 */
template <class Unit>
auto
measureLoadPoint(Unit &unit, const Capacity &cap,
                 const workloads::Spec &spec,
                 const ExperimentOptions &opts)
{
    const double lf = spec.operatingLoadFactor > 0.0
                          ? spec.operatingLoadFactor
                          : opts.loadFactor;
    return unit.measure(cap.requestGbps * lf, opts.warmup,
                        windowFor(cap.rps, opts));
}

} // namespace snic::core

#endif // SNIC_CORE_THROUGHPUT_SEARCH_HH
