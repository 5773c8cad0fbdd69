/**
 * @file
 * Load balancer implementation: a dual-path REM testbed.
 */

#include "core/load_balancer.hh"

#include <algorithm>

#include "hw/specs.hh"
#include "power/energy.hh"
#include "sim/logging.hh"
#include "stack/dpdk_stack.hh"
#include "workloads/rem.hh"

namespace snic::core {

const char *
balancePolicyName(BalancePolicy p)
{
    switch (p) {
      case BalancePolicy::SnicOnly:
        return "snic_only";
      case BalancePolicy::HostOnly:
        return "host_only";
      case BalancePolicy::StaticSplit:
        return "static_split";
      case BalancePolicy::Threshold:
        return "threshold";
      case BalancePolicy::HwThreshold:
        return "hw_threshold";
    }
    sim::panic("balancePolicyName: bad policy");
}

namespace {

/**
 * The dual-path harness. Unlike Testbed (one serving platform), the
 * balancer steers each packet to the host software path OR the
 * SNIC accelerator path at runtime.
 */
class BalancerBed
{
  public:
    explicit BalancerBed(const BalancerConfig &config)
        : _config(config),
          _sim(config.seed),
          _server(_sim, 8, 2),  // 2 SNIC staging cores (Sec. 3.4)
          _power(_server),
          _upLink(_sim, "uplink", hw::specs::lineRateGbps,
                  sim::usToTicks(1.0)),
          _gen(_sim, "client", _upLink,
               net::SizeDist::fixed(net::mtuBytes), net::Proto::Dpdk),
          _workload(_config.ruleset, workloads::RemTraffic::Mtu)
    {
        _workload.setup(_sim.rng());
        _upLink.connect(
            [this](const net::Packet &pkt) { ingress(pkt); });
    }

    BalancerResult
    run()
    {
        power::EnergyMeter meter(_server, _power);
        meter.begin();
        const double snic_busy0 = _server.snicCpu().busyIntegral();
        _gen.startSchedule(_config.ratesGbps, _config.binTicks);
        const sim::Tick end =
            _sim.now() +
            _config.binTicks * _config.ratesGbps.size();
        _sim.runUntil(end + sim::msToTicks(1.0));

        BalancerResult r;
        r.policy = _config.policy;
        double offered = 0.0;
        for (double g : _config.ratesGbps)
            offered += g;
        r.offeredMeanGbps =
            offered / static_cast<double>(_config.ratesGbps.size());
        const double secs = sim::ticksToSec(end);
        r.achievedGbps = _bytesServed * 8.0 / secs / 1e9;
        r.p99Us = sim::ticksToUs(_latency.p99());
        r.meanUs = sim::ticksToUs(_latency.mean());
        r.completed = _completed;
        r.hostShare = _completed
                          ? static_cast<double>(_toHost) /
                                static_cast<double>(_toHost + _toSnic)
                          : 0.0;
        const auto energy = meter.end(_bytesServed);
        r.avgServerWatts = energy.avgServerWatts;
        const double snic_busy =
            _server.snicCpu().busyIntegral() - snic_busy0;
        r.snicCpuUtil = std::min(
            1.0, snic_busy / (secs * _server.snicCpu().numWorkers()));
        return r;
    }

  private:
    BalancerConfig _config;
    sim::Simulation _sim;
    hw::ServerModel _server;
    power::ServerPowerModel _power;
    net::Link _upLink;
    net::TrafficGen _gen;
    workloads::Rem _workload;
    stack::DpdkStack _stack;

    stats::Histogram _latency;
    std::uint64_t _completed = 0;
    std::uint64_t _toHost = 0;
    std::uint64_t _toSnic = 0;
    double _bytesServed = 0.0;
    double _accelLatEwmaUs = 0.0;

    bool
    sendToHost(const net::Packet &pkt)
    {
        switch (_config.policy) {
          case BalancePolicy::HostOnly:
            return true;
          case BalancePolicy::SnicOnly:
            return false;
          case BalancePolicy::StaticSplit:
            return _sim.rng().chance(_config.hostFraction);
          case BalancePolicy::Threshold:
            (void)pkt;
            if (_accelLatEwmaUs <= _config.thresholdUs)
                return false;
            // While redirecting, keep a small probe stream on the
            // accelerator so the latency estimate can recover once
            // the burst passes.
            return !_sim.rng().chance(0.05);
          case BalancePolicy::HwThreshold: {
            // Hardware sees the engine's queue depth directly: spill
            // only what the engine cannot absorb within the SLO.
            const auto &engine = _server.accel(hw::AccelKind::Rem);
            const double backlog_us =
                engine.busyWorkers() >= engine.numWorkers()
                    ? _accelLatEwmaUs
                    : 0.0;
            return backlog_us > _config.thresholdUs;
          }
        }
        return true;
    }

    void
    ingress(const net::Packet &pkt)
    {
        // The *software* balancer runs on the SNIC CPU:
        // classification + statistics monitoring per packet. The
        // hardware policy lives in the eSwitch and costs nothing.
        if (_config.policy == BalancePolicy::Threshold ||
            _config.policy == BalancePolicy::StaticSplit) {
            alg::WorkCounters monitor;
            monitor.branchyOps = _config.monitorOpsPerPacket;
            _server.snicCpu().submit(monitor, pkt.flowHash, nullptr);
        }

        if (sendToHost(pkt)) {
            ++_toHost;
            auto plan = _workload.plan(pkt.sizeBytes,
                                       hw::Platform::HostCpu,
                                       _sim.rng());
            alg::WorkCounters work = plan.cpuWork;
            work += _stack.rxWork(pkt.sizeBytes);
            const sim::Tick dma =
                _server.pcie().transferDelay(pkt.sizeBytes);
            const sim::Tick created = pkt.createdAt;
            _sim.after(
                dma,
                [this, work, created, pkt] {
                    _server.hostCpu().submit(
                        work, pkt.flowHash, [this, created, pkt] {
                            complete(created, pkt, false);
                        });
                },
                "load-balancer.host-dma");
        } else {
            ++_toSnic;
            auto plan = _workload.plan(pkt.sizeBytes,
                                       hw::Platform::SnicAccel,
                                       _sim.rng());
            const sim::Tick created = pkt.createdAt;
            _server.snicCpu().submit(
                plan.cpuWork, pkt.flowHash,
                [this, accel = plan.accelWork, created, pkt] {
                    _server.accel(hw::AccelKind::Rem)
                        .submit(accel, pkt.flowHash,
                                [this, created, pkt] {
                                    complete(created, pkt, true);
                                });
                });
        }
    }

    void
    complete(sim::Tick created, const net::Packet &pkt, bool via_accel)
    {
        const sim::Tick lat = _sim.now() - created;
        _latency.record(lat);
        ++_completed;
        _bytesServed += pkt.sizeBytes;
        if (via_accel) {
            const double us = sim::ticksToUs(lat);
            _accelLatEwmaUs = 0.9 * _accelLatEwmaUs + 0.1 * us;
        }
    }
};

} // anonymous namespace

BalancerResult
runBalancer(const BalancerConfig &config)
{
    if (config.ratesGbps.empty())
        sim::fatal("runBalancer: empty rate schedule");
    BalancerBed bed(config);
    return bed.run();
}

} // namespace snic::core
