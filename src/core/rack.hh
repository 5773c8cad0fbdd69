/**
 * @file
 * Rack-level composition: M independent server pipelines behind a
 * top-of-rack dispatch model, driven by ONE aggregate traffic
 * generator on ONE simulation timeline.
 *
 * The paper's TCO punchline (Table 5, Sec. 6) is about fleets — how
 * many SNIC-augmented vs NIC-only servers serve a demand under an
 * SLO — but ceil(demand / per-server-capacity) arithmetic hides the
 * cross-server imbalance a real dispatcher produces. Here the
 * imbalance is emergent: the ToR policy decides where each packet
 * goes, each member models its own uplink serialization, queues and
 * accelerator, and the rack-level p99 is the merged distribution the
 * operator actually observes.
 *
 * Wiring invariant: a 1-server rack with the PassThrough policy
 * performs exactly the event sequence of the single-server Testbed —
 * same RNG stream, same link hops, zero added dispatch cost — so its
 * numbers are bitwise identical (asserted in tests/test_rack.cc).
 * Everything the rack adds is therefore attributable to topology, not
 * to harness drift.
 */

#ifndef SNIC_CORE_RACK_HH
#define SNIC_CORE_RACK_HH

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/testbed.hh"
#include "net/tor_switch.hh"
#include "power/power_state.hh"

namespace snic::core {

/** Rack construction options. */
struct RackConfig
{
    std::string workloadId;
    hw::Platform platform = hw::Platform::HostCpu;
    /**
     * Rack-level service chain. Empty means the classic composition
     * (every member runs workloadId on platform, the ToR balances).
     * When set, it takes precedence: every member is assembled with
     * the *member-stripped* chain (identical hardware everywhere),
     * and when any stage names a member != 0 the rack runs in
     * spanning-chain mode — all traffic enters at the first stage's
     * member and consecutive stages on different members pay a
     * ToR-priced cross-member transfer (see DESIGN.md §13).
     */
    ChainSpec chain;
    /** Member servers behind the ToR. */
    unsigned servers = 1;
    net::DispatchPolicy policy = net::DispatchPolicy::RoundRobin;
    std::uint64_t seed = 1;
    /** Host core count override per member (0 = workload default). */
    unsigned hostCoresOverride = 0;
    /** FlowHash knobs (see TorConfig). */
    unsigned flowCount = 64;
    double hotFlowFraction = 0.0;
    /** Probe count for the RandomDChoice (JSQ(d)) policy; each probe
     *  adds specs::torProbeNs to the forwarding charge. */
    unsigned dchoiceProbes = 2;
    /** Member power-state electricals (fleet autoscaling). */
    power::PowerStateSpecs powerSpecs;
    /** How often a draining member is re-checked for quiescence. */
    sim::Tick drainPollTicks = sim::usToTicks(10.0);
};

/** One rack measurement window: the merged view plus every member. */
struct RackMeasurement
{
    /** Rack-aggregate numbers: throughput/completions summed, the
     *  latency histogram merged across members (energy summed; its
     *  utilizations are member means). Stage stats stay per-member. */
    Measurement aggregate;
    /** Per-server windows, ToR order. */
    std::vector<Measurement> perServer;
    /** Packets the ToR dispatched to each member (includes warmup —
     *  dispatch shares, not window-exact counts). */
    std::vector<std::uint64_t> dispatched;
    /** max/mean of dispatched (1 = perfectly balanced). */
    double imbalance = 0.0;
};

/**
 * One trace bin's rack-level outcome (the fleet's operator view:
 * completions and latency are recorded in the bin they *finish* in,
 * so straddling requests land where a dashboard would put them).
 */
struct RackBinStats
{
    std::uint64_t completed = 0;
    std::uint64_t generated = 0;
    /** Served request-byte throughput over the bin. */
    double achievedGbps = 0.0;
    /** Merged end-to-end latency distribution (ticks). */
    stats::Histogram latency;
    /** Per-member metered window (activity power above the base). */
    std::vector<power::EnergyReading> memberEnergy;
    std::vector<std::uint64_t> memberCompleted;

    double p99Us() const { return sim::ticksToUs(latency.p99()); }
    double meanUs() const { return sim::ticksToUs(latency.mean()); }
};

/**
 * The assembled rack.
 */
class Rack
{
  public:
    explicit Rack(const RackConfig &config);

    /**
     * Assemble onto an externally owned Simulation — the fleet
     * composition, where N racks share one timeline. The caller keeps
     * @p shared alive for the rack's lifetime.
     */
    Rack(const RackConfig &config, sim::Simulation &shared);

    ~Rack();

    unsigned servers() const
    {
        return static_cast<unsigned>(_members.size());
    }
    Testbed &server(unsigned i) { return *_members.at(i); }
    const RackConfig &config() const { return _config; }
    sim::Simulation &sim() { return *_sim; }
    const net::TorSwitch &tor() const { return *_tor; }

    /**
     * Open-loop rack measurement: offer @p aggregate_gbps across the
     * whole rack for @p window after @p warmup: Testbed's window
     * skeleton over every member, then the merged aggregate.
     */
    RackMeasurement measure(double aggregate_gbps, sim::Tick warmup,
                            sim::Tick window);

    /** Sum of the members' analytic capacity estimates (rps). */
    double estimateCapacityRps(int samples = 64);

    /** Mean request bytes of the (shared) workload spec. */
    double meanRequestBytes() const;

    // ------------------------------------------------------------------
    // Fleet day-driving API. The fleet feeds the rack a whole rate
    // schedule, then walks it bin by bin: beginBin()/endBin() reset and
    // read *stats only* — never the pipeline epoch or the datapath —
    // so requests straddling a bin boundary complete normally and are
    // recorded in the bin they finish in.
    // ------------------------------------------------------------------

    /** Start a day: fresh windows on every member, then the aggregate
     *  client replays @p rates_gbps at @p bin ticks per bin. */
    void beginTrace(const std::vector<double> &rates_gbps,
                    sim::Tick bin);

    /** Stop the aggregate client (end of day). */
    void stopTrace();

    /** Open a stats bin: zero the member window counters and snap the
     *  energy meters. Call at each bin boundary after runUntil. */
    void beginBin();

    /** Close the bin opened by beginBin(): merged latency/completions
     *  plus per-member metered energy over @p bin_ticks. */
    RackBinStats endBin(sim::Tick bin_ticks);

    // ------------------------------------------------------------------
    // Member power control (the autoscaler's levers).
    // ------------------------------------------------------------------

    /**
     * Order member @p m down. The member leaves the dispatch set
     * immediately, finishes its in-flight requests (Draining), and
     * drops to the sleep draw once quiescent. Fatal if it is the last
     * dispatchable member or not Active.
     */
    void sleepMember(unsigned m);

    /**
     * Order member @p m up. A Draining member cancels its drain (it
     * never slept — no wake latency); an Asleep member starts its
     * wake and rejoins the dispatch set immediately, with every
     * packet sent to it stalled at admission until wake-done.
     * No-op when already Active or Waking.
     */
    void wakeMember(unsigned m);

    /** Member @p m holds no requests anywhere (uplink wire, pipeline,
     *  response wire). */
    bool memberQuiescent(unsigned m) const;

    power::PowerState memberState(unsigned m) const
    {
        return _memberPower.at(m).state();
    }

    /** The member's power-state machine (residency and base-draw
     *  energy accounting). */
    const power::PowerStateMachine &memberPower(unsigned m) const
    {
        return _memberPower.at(m);
    }

    /** Dispatchable members (Active + Waking). */
    unsigned dispatchableMembers() const { return _tor->liveCount(); }

    /** True when a spanning chain forces all ingress to one member. */
    bool chainMode() const { return _chainMode; }
    /** The ingress member of a spanning chain (0 otherwise). */
    unsigned chainIngress() const { return _chainIngress; }

  private:
    /** Shared constructor body. */
    void assemble();

    /** One dispatch decision: pick a member, charge the ToR forward
     *  latency, and send — parked until wake-done when the member is
     *  still powering up (the admission stall). */
    void dispatch(const net::Packet &pkt);

    /** Drain poll: put a quiescent Draining member to sleep, else
     *  re-check after drainPollTicks. */
    void pollDrain(unsigned m);

    RackConfig _config;
    /** Set when this rack owns its Simulation; empty when assembled
     *  onto a shared (fleet) one. */
    std::unique_ptr<sim::Simulation> _ownedSim;
    sim::Simulation *_sim = nullptr;
    std::vector<std::unique_ptr<Testbed>> _members;
    std::unique_ptr<net::TorSwitch> _tor;
    /** The rack's single aggregate client. */
    std::unique_ptr<net::TrafficGen> _gen;
    /** Per-member power-state machines, ToR order. */
    std::vector<power::PowerStateMachine> _memberPower;
    /** Tick each member's in-progress wake completes (0 = not
     *  waking; inert once now passes it). */
    std::vector<sim::Tick> _memberWakeDone;
    /** Per-member energy meters of the open stats bin. */
    std::vector<power::EnergyMeter> _binMeters;
    /** Spanning-chain mode: config.chain names members != 0. */
    bool _chainMode = false;
    /** All traffic enters at this member's uplink in chain mode. */
    unsigned _chainIngress = 0;
    /** Members hosting a chain stage — invalid sleep targets. */
    std::vector<bool> _chainPinned;
};

/** Fleet sizing answers: arithmetic vs simulated (Sec. 6 as a
 *  simulation question instead of a division). */
struct FleetSizing
{
    /** ceil(demand / per-server capacity). */
    unsigned arithmeticServers = 0;
    /** Smallest simulated rack that served the demand within the
     *  p99 budget (0 when no size in the searched range did). */
    unsigned simulatedServers = 0;
    /** Aggregate numbers of the accepted rack size. */
    double achievedGbps = 0.0;
    double p99Us = 0.0;
    double imbalance = 0.0;
    bool met = false;

    /** simulated - arithmetic (the headroom arithmetic hides). */
    int deltaServers() const
    {
        return static_cast<int>(simulatedServers) -
               static_cast<int>(arithmeticServers);
    }
};

/**
 * Size a fleet by simulation: starting from the arithmetic estimate
 * implied by @p per_server_gbps, simulate racks of growing size until
 * one serves @p demand_gbps with p99 <= @p p99_budget_us (or the
 * search range max(arith-1,1) .. arith+8 is exhausted).
 * @p base supplies workload/platform/policy; its server count is
 * overridden per candidate.
 */
FleetSizing sizeFleetBySimulation(const RackConfig &base,
                                  double demand_gbps,
                                  double p99_budget_us,
                                  double per_server_gbps,
                                  const ExperimentOptions &opts = {});

/** The headline numbers of one rack cell (mirrors RunResult). */
struct RackRunResult
{
    RackConfig config;
    double maxGbps = 0.0;   ///< rack-aggregate sustainable goodput
    double maxRps = 0.0;
    double p99Us = 0.0;     ///< merged distribution at the load point
    double p50Us = 0.0;
    double meanUs = 0.0;
    /** Sum of member avgServerWatts at the load point. */
    double rackWatts = 0.0;
    double imbalance = 0.0;
    /** Capacity-search telemetry (attempts/saturated). */
    int searchAttempts = 0;
    bool saturated = false;
    /** The full load-point window (aggregate + per-server). */
    RackMeasurement loadPoint;
};

/** Run the capacity-then-load-point procedure for one rack cell. */
RackRunResult runRackExperiment(const RackConfig &config,
                                const ExperimentOptions &opts = {});

} // namespace snic::core

#endif // SNIC_CORE_RACK_HH
