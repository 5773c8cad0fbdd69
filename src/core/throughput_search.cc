/**
 * @file
 * Capacity search implementation.
 */

#include "core/throughput_search.hh"

#include <algorithm>
#include <functional>

#include "core/rack.hh"
#include "hw/specs.hh"

namespace snic::core {

namespace {

/**
 * The one escalate-until-saturated search: offer 1.35x the analytic
 * estimate (or opts.initialOfferedGbps), clamped to @p wire_cap, and
 * escalate by 1.7x until the measured window confirms saturation or
 * the offer reaches the wire.
 */
Capacity
searchCapacity(double mean_bytes, double est_rps, double wire_cap,
               const ExperimentOptions &opts,
               const std::function<Measurement(double, sim::Tick)>
                   &measure)
{
    const double est_gbps = est_rps * mean_bytes * 8.0 / 1e9;
    double offered = opts.initialOfferedGbps > 0.0
                         ? std::min(opts.initialOfferedGbps, wire_cap)
                         : std::min(est_gbps * 1.35, wire_cap);
    Capacity best;

    for (int attempt = 0; attempt < 5; ++attempt) {
        const Measurement m = measure(offered, windowFor(est_rps, opts));
        ++best.attempts;
        best.gbps = std::max(best.gbps, m.goodputGbps);
        best.requestGbps = std::max(best.requestGbps, m.achievedGbps);
        best.rps = std::max(best.rps, m.achievedRps);
        // Saturated (offered clearly exceeds achieved) or the wire
        // itself is the limit: done.
        if (m.achievedGbps < 0.93 * offered ||
            offered >= wire_cap * 0.999) {
            best.saturated = true;
            break;
        }
        offered = std::min(offered * 1.7, wire_cap);
    }
    return best;
}

} // anonymous namespace

Capacity
findCapacity(Testbed &testbed, const ExperimentOptions &opts)
{
    return searchCapacity(
        testbed.workload().spec().sizes.meanBytes(),
        testbed.estimateCapacityRps(), hw::specs::lineRateGbps, opts,
        [&](double offered, sim::Tick window) {
            return testbed.measure(offered, opts.warmup, window);
        });
}

Capacity
findCapacity(Rack &rack, const ExperimentOptions &opts)
{
    return searchCapacity(
        rack.meanRequestBytes(), rack.estimateCapacityRps(),
        rack.servers() * hw::specs::lineRateGbps, opts,
        [&](double offered, sim::Tick window) {
            return std::move(
                rack.measure(offered, opts.warmup, window).aggregate);
        });
}

} // namespace snic::core
