/**
 * @file
 * The testbed: one simulated client + server pair running one
 * workload configuration on one execution platform — the unit of
 * measurement behind every figure and table in the study.
 *
 * Request path (network drives):
 *   TrafficGen -> 100 GbE Link -> eSwitch ->
 *   IngressStage -> StackStage -> AppStage -> AcceleratorStage ->
 *   EgressStage -> response serialization on the down Link ->
 *   latency sample.
 *
 * The Testbed is an *assembler*: it builds the hardware, wires the
 * stage pipeline (core/pipeline.hh) per TestbedConfig, and owns the
 * measurement state (windows, recording, closed-loop driver). The
 * datapath itself lives in the stages, so experiment variants swap
 * stages instead of forking this class.
 *
 * Local drives (Cryptography, fio) replace the ingress path with a
 * local job generator (open loop) or an iodepth-style closed loop.
 */

#ifndef SNIC_CORE_TESTBED_HH
#define SNIC_CORE_TESTBED_HH

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/chain.hh"
#include "core/pipeline.hh"
#include "hw/server.hh"
#include "net/link.hh"
#include "net/traffic_gen.hh"
#include "power/energy.hh"
#include "power/power_model.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"
#include "workloads/registry.hh"

namespace snic::core {

/** Engine queue-discipline policy for one testbed run. */
enum class AccelQueueing
{
    /** The workload's Spec::accelBatch decides (REM coalesces; the
     *  other functions run the Immediate identity path). */
    WorkloadDefault,
    /** Per-request Immediate dispatch regardless of the workload —
     *  the pre-discipline datapath (identity A/B runs). */
    ForceImmediate,
    /** Coalesce with TestbedConfig::accelBatchOverride (batch-size
     *  sweeps, fig5_rem_sweep --batch). */
    ForceCoalescing,
};

/** Testbed construction options. */
struct TestbedConfig
{
    std::string workloadId;
    hw::Platform platform = hw::Platform::HostCpu;
    /**
     * The service chain to assemble. Empty (the default) means the
     * classic single-function testbed: ChainSpec::single(workloadId,
     * platform). When set, it takes precedence and workloadId /
     * platform are normalized to the chain's first function.
     */
    ChainSpec chain;
    std::uint64_t seed = 1;
    /** Override the host core count (0 = workload default). */
    unsigned hostCoresOverride = 0;
    /** Engine queue-discipline policy (see AccelQueueing). */
    AccelQueueing accelQueueing = AccelQueueing::WorkloadDefault;
    /** Coalescing parameters when accelQueueing is ForceCoalescing. */
    hw::BatchConfig accelBatchOverride;
    /**
     * Descriptor-ring depth override for the workload's engine
     * (0 = keep the discipline's own queueDepth, unbounded by
     * default). A finite depth turns on doorbell backpressure: full
     * ring ⇒ submitters park and the stall is charged to the serving
     * CPU. Ignored under ForceImmediate (the identity datapath has
     * no ring model).
     */
    unsigned accelRingDepth = 0;
    /**
     * Per-packet XDP verdict decision (an ACL table, a front cache).
     * Consulted only when the configured stack is StackKind::Xdp;
     * installing one under any other stack is structurally inert.
     * Any randomness must be the hook's own — it must not touch the
     * simulation's RNG stream.
     */
    XdpVerdictHook xdpVerdict;
    /**
     * Goodput filter for mixed legitimate/hostile traffic: when set,
     * completions for which the predicate returns false are excluded
     * from the latency histogram, completed count and goodput bytes,
     * and counted into Measurement::floodCompleted instead. The
     * predicate sees the *request* packet at egress and the
     * *response* packet at down-link delivery, so scenarios must tag
     * hostility in a field both carry (the size class in xdp_acl).
     */
    std::function<bool(const net::Packet &)> goodFilter;
};

/** One measurement window's outcome. */
struct Measurement
{
    double offeredGbps = 0.0;
    /** Served throughput in *request* bytes — same basis as
     *  offeredGbps, used by the capacity search. */
    double achievedGbps = 0.0;
    /** Served throughput counting max(request, response) bytes per
     *  request — the function-level number reported in figures. */
    double goodputGbps = 0.0;
    double achievedRps = 0.0;    ///< requests per second
    std::uint64_t completed = 0;
    std::uint64_t generated = 0;
    /** Completions excluded by TestbedConfig::goodFilter (the served
     *  share of a hostile flood); 0 when no filter is installed. */
    std::uint64_t floodCompleted = 0;
    stats::Histogram latency;    ///< end-to-end, in ticks
    power::EnergyReading energy;
    /** Served bytes per bin during replaySchedule (Fig. 7's measured
     *  rate-over-time series); empty for plain measurements. */
    std::vector<double> servedGbpsSeries;
    /** Per-stage flow/queue/latency stats for the window, pipeline
     *  order (single-function chains: ingress, stack, app,
     *  accelerator, egress; longer chains interleave per-function
     *  CPU/engine stages and transfer stages). */
    std::vector<StageSnapshot> stageStats;
    /** Slowest completed request timelines (slowest first), empty
     *  unless Testbed::enableTracing was called. Hop stage indices
     *  address stageStats. */
    std::vector<RequestTrace> slowestTraces;
    /** The engine's batch-formation behaviour during the window
     *  (zeros when it ran the Immediate discipline). */
    hw::BatchingSnapshot accelBatching;
    /** The engine's descriptor-ring/doorbell behaviour during the
     *  window (unbounded depth and zeros by default). */
    hw::RingSnapshot accelRing;
    /** Which upstream stage's tail residency coincided with the
     *  ring-full spans (meaningful only with tracing enabled and a
     *  finite ring; ringStage is the accelerator stage index). */
    BackpressureCorrelation backpressure;

    double p99Us() const { return sim::ticksToUs(latency.p99()); }
    double p50Us() const { return sim::ticksToUs(latency.p50()); }
    double meanUs() const { return sim::ticksToUs(latency.mean()); }
};

/** The wire protocol a stack kind carries (generator packet tag). */
net::Proto protoFor(stack::StackKind kind);

/**
 * The assembled testbed.
 */
class Testbed : private EgressSink
{
  public:
    explicit Testbed(const TestbedConfig &config);

    /**
     * Assemble onto an externally owned Simulation — the rack
     * composition, where M servers share one timeline so cross-server
     * effects are emergent. The caller keeps @p shared alive for the
     * testbed's lifetime and drives the measurement windows itself
     * (Rack); config.seed only seeds the analytic estimator.
     */
    Testbed(const TestbedConfig &config, sim::Simulation &shared);

    ~Testbed() override;

    /**
     * Open-loop measurement: offer @p gbps of traffic (or jobs) for
     * @p window after @p warmup; collect stats from the window only.
     */
    Measurement measure(double gbps, sim::Tick warmup,
                        sim::Tick window);

    /**
     * Closed-loop measurement with @p depth outstanding requests
     * (fio's iodepth). Offered rate is whatever the loop sustains.
     */
    Measurement measureClosedLoop(unsigned depth, sim::Tick warmup,
                                  sim::Tick window);

    /**
     * Replay a rate schedule (Fig. 7): @p rates_gbps windows of
     * @p bin ticks each; returns the whole-trace measurement.
     */
    Measurement replaySchedule(const std::vector<double> &rates_gbps,
                               sim::Tick bin);

    /**
     * Analytic capacity estimate in requests/s: samples plans, prices
     * them on the serving platforms, and takes the bottleneck stage.
     * Used to size the load sweeps (not a measurement).
     */
    double estimateCapacityRps(int samples = 64);

    /**
     * Opt into per-request stage tracing: keep the @p keepSlowest
     * slowest completed timelines of each measurement window in
     * Measurement::slowestTraces. Must be called before the
     * measurement; tracing adds no cost to untraced runs.
     */
    void enableTracing(std::size_t keepSlowest);

    /** The attached recorder (null when tracing is disabled). */
    const TraceRecorder *tracer() const { return _tracer.get(); }

    /** The chain's first (primary) function. */
    const workloads::Workload &workload() const { return *_workload; }
    /** The assembled chain, front to back (length 1 for classic
     *  single-function configs). */
    const std::vector<ChainStageRuntime> &chain() const
    {
        return _chain;
    }
    hw::ServerModel &server() { return *_server; }
    hw::Platform platform() const { return _config.platform; }
    sim::Simulation &sim() { return *_sim; }
    const power::ServerPowerModel &power() const { return *_power; }
    /** The assembled stage chain (stats, stage inspection). */
    const Pipeline &pipeline() const { return *_pipeline; }
    /** The client-to-server link (rack dispatch injects here). */
    net::Link &upLink() { return *_upLink; }

  private:
    /** The rack composition drives member windows directly. */
    friend class Rack;

    TestbedConfig _config;
    /** Set when this testbed owns its Simulation (the single-server
     *  construction); empty when assembled onto a shared one. */
    std::unique_ptr<sim::Simulation> _ownedSim;
    sim::Simulation *_sim = nullptr;
    std::unique_ptr<hw::ServerModel> _server;
    std::unique_ptr<power::ServerPowerModel> _power;
    std::unique_ptr<net::Link> _upLink;    ///< client -> server
    std::unique_ptr<net::Link> _downLink;  ///< server -> client
    std::unique_ptr<net::TrafficGen> _gen;
    /** The chain's workload instances, front to back. */
    std::vector<workloads::WorkloadPtr> _chainWorkloads;
    /** The assembled chain (placements + unique instance names). */
    std::vector<ChainStageRuntime> _chain;
    /** The primary (first) function — owned by _chainWorkloads. */
    workloads::Workload *_workload = nullptr;
    /** Distinct CPU platforms the chain runs on, chain order. */
    std::vector<hw::ExecutionPlatform *> _cpus;
    /** Distinct engines referenced by the chain's function specs,
     *  chain order (always at least one — the primary's). */
    std::vector<hw::ExecutionPlatform *> _engines;
    /** Stage name correlateRingFull anchors to ("accelerator" for
     *  single-function chains; the first engine-placed stage's
     *  engine instance otherwise; empty when no engine stage). */
    std::string _accelStageName;
    std::unique_ptr<stack::StackModel> _stack;
    std::unique_ptr<Pipeline> _pipeline;
    /** Per-request trace recorder (allocated by enableTracing). */
    std::unique_ptr<TraceRecorder> _tracer;

    /** One measurement window's counters, cleared as a unit at each
     *  window (beginWindow) or stats-bin (Rack::beginBin) boundary. */
    struct Window
    {
        bool recording = false;
        stats::Histogram latency;
        std::uint64_t completed = 0;
        std::uint64_t floodCompleted = 0;
        std::uint64_t generated = 0;
        double bytesServed = 0.0;   ///< request bytes
        double goodputBytes = 0.0;  ///< max(request, response) bytes
        double wireBytes = 0.0;     ///< request + response bytes

        void clear();
    };

    // Live measurement state. The pipeline's epoch guards against
    // requests left in flight by a previous measurement window:
    // anything created before it is dropped unrecorded.
    Window _window;
    /** Per-bin served-byte series, active during replaySchedule. */
    std::unique_ptr<stats::TimeSeries> _servedSeries;

    // Closed-loop driver state.
    unsigned _inFlight = 0;
    unsigned _targetDepth = 0;
    bool _closedLoopActive = false;
    std::uint64_t _jobSeq = 0;

    // EgressSink: completions leaving the pipeline.
    void onStale() override;
    void onServed(const net::Packet &pkt,
                  const workloads::RequestPlan &plan) override;
    void onTerminal(sim::Tick latency) override;

    /** Shared constructor body: hardware, pipeline, generator. */
    void assemble();

    void issueClosedLoopJob();
    void scheduleLocalJob(double jobs_per_sec, sim::Tick until);
    /** Inject one locally generated job at the pipeline front. */
    void injectLocalJob();

    /** (Re)build the stage pipeline over _chain, responses leaving
     *  on @p egress_down. */
    void buildPipeline(net::Link &egress_down);
    /** The window's Measurement, energy read off @p meter. */
    Measurement collect(sim::Tick window, double offered_gbps,
                        const power::EnergyMeter &meter);

    /** The CPU platform that serves this config. */
    hw::ExecutionPlatform &servingCpu();

    /** The engine platform serving this workload's accelerator work. */
    hw::ExecutionPlatform &accelEngine();

    /**
     * Install a rack-assembled spanning chain (called by the friend
     * Rack on the ingress member): replaces this member's local chain
     * with one whose stages carry per-member servers and ToR paths,
     * and rebuilds the pipeline so the egress response leaves on the
     * *last* stage's member's down link. Only the Rack can build such
     * a chain — standalone assembly rejects member != 0 fatally.
     */
    void installRackChain(std::vector<ChainStageRuntime> chain,
                          net::Link &egress_down);

    /** Restart the window-scoped observers (trace recorder, engine
     *  ring + batching stats) at the warmup/window boundary. Stats
     *  only — never touches queues or the event schedule. */
    void resetWindowObservers();

    /** Start a fresh measurement window: advance the epoch, clear
     *  the recorders and per-stage stats. */
    void beginWindow();

    /**
     * The one measurement window (measure, measureClosedLoop,
     * replaySchedule, Rack::measure), over @p members sharing one
     * Simulation: begin a fresh window on each, run @p start (given
     * the window's end tick), warm up for @p warmup, restart the
     * observers and record under per-member energy meters for
     * @p window, stop recording, run @p stop, then collect each
     * member's Measurement (@p offered_gbps apiece), member order.
     */
    static std::vector<Measurement>
    measureWindow(std::span<Testbed *const> members, sim::Tick warmup,
                  sim::Tick window, double offered_gbps,
                  const std::function<void(sim::Tick)> &start,
                  const std::function<void()> &stop);

    /** Drain queues and clear link/PCIe backlog between windows. */
    void resetDatapath();
};

} // namespace snic::core

#endif // SNIC_CORE_TESTBED_HH
