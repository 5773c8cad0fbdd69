/**
 * @file
 * Experiment harness implementation.
 */

#include "core/experiment.hh"

#include <algorithm>

#include "core/efficiency.hh"
#include "core/throughput_search.hh"
#include "workloads/fio.hh"

namespace snic::core {

namespace {

/** fio runs closed-loop at its iodepth; everything else open-loop. */
bool
isClosedLoop(const workloads::Workload &w)
{
    return w.spec().family == "fio";
}

/** The testbed one harness cell runs on. */
TestbedConfig
configFor(const std::string &workload_id, hw::Platform platform,
          const ExperimentOptions &opts)
{
    TestbedConfig config;
    config.workloadId = workload_id;
    config.platform = platform;
    config.seed = opts.seed;
    config.hostCoresOverride = opts.hostCoresOverride;
    config.accelQueueing = opts.accelQueueing;
    config.accelBatchOverride = opts.accelBatchOverride;
    config.accelRingDepth = opts.accelRingDepth;
    return config;
}

} // anonymous namespace

sim::Tick
windowFor(double rps, const ExperimentOptions &opts)
{
    if (rps <= 0.0)
        return opts.minWindow;
    const double secs =
        static_cast<double>(opts.targetSamples) / rps;
    const auto window = sim::secToTicks(secs);
    return std::clamp(window, opts.minWindow, opts.maxWindow);
}

RunResult
runExperiment(const std::string &workload_id, hw::Platform platform,
              const ExperimentOptions &opts)
{
    RunResult r;
    r.workloadId = workload_id;
    r.platform = platform;

    Testbed testbed(configFor(workload_id, platform, opts));
    if (opts.traceSlowest > 0)
        testbed.enableTracing(opts.traceSlowest);

    Measurement m;
    if (isClosedLoop(testbed.workload())) {
        // Closed loop: capacity and latency come from one run.
        const sim::Tick window = windowFor(
            testbed.estimateCapacityRps(), opts);
        m = testbed.measureClosedLoop(workloads::Fio::ioDepth,
                                      opts.warmup, window);
        r.maxGbps = m.goodputGbps;
        r.maxRps = m.achievedRps;
    } else {
        const Capacity cap = findCapacity(testbed, opts);
        m = measureLoadPoint(testbed, cap, testbed.workload().spec(),
                             opts);
        r.maxGbps = cap.gbps;
        r.maxRps = cap.rps;
    }
    r.p99Us = m.p99Us();
    r.p50Us = m.p50Us();
    r.meanUs = m.meanUs();
    r.energy = m.energy;
    r.slowestTraces = std::move(m.slowestTraces);
    r.accelBatching = m.accelBatching;
    r.accelRing = m.accelRing;
    r.backpressure = m.backpressure;

    r.efficiencyRpsPerJoule = efficiencyRpsPerJoule(r);
    r.efficiencyGbpsPerWatt = efficiencyGbpsPerWatt(r);
    return r;
}

Measurement
measureAtRate(const std::string &workload_id, hw::Platform platform,
              double gbps, const ExperimentOptions &opts)
{
    Testbed testbed(configFor(workload_id, platform, opts));
    if (opts.traceSlowest > 0)
        testbed.enableTracing(opts.traceSlowest);

    // Window sized by the *offered* rate.
    const double mean_bytes =
        testbed.workload().spec().sizes.meanBytes();
    const double rps = net::gbpsToBytesPerSec(gbps) / mean_bytes;
    return testbed.measure(gbps, opts.warmup, windowFor(rps, opts));
}

} // namespace snic::core
