/**
 * @file
 * Tests for the capacity search: saturation confirmation on the
 * first window, the escalate-on-non-saturation branch, and the
 * rack search agreeing with the standalone one.
 */

#include <gtest/gtest.h>

#include "core/rack.hh"
#include "core/testbed.hh"
#include "core/throughput_search.hh"
#include "hw/specs.hh"

using namespace snic;
using namespace snic::core;

namespace {

Testbed
makeBed(const char *id, hw::Platform p, std::uint64_t seed = 1)
{
    TestbedConfig cfg;
    cfg.workloadId = id;
    cfg.platform = p;
    cfg.seed = seed;
    return Testbed(cfg);
}

} // anonymous namespace

TEST(ThroughputSearch, ConfirmsSaturationOnFirstWindow)
{
    // The analytic estimate-plus-margin offer overshoots the host
    // UDP capacity (~25 Gbps), so achieved lands clearly below
    // offered and one window suffices.
    auto bed = makeBed("micro_udp_1024", hw::Platform::HostCpu);
    ExperimentOptions opts;
    opts.targetSamples = 5000;
    const Capacity cap = findCapacity(bed, opts);
    EXPECT_TRUE(cap.saturated);
    EXPECT_EQ(cap.attempts, 1);
    EXPECT_GT(cap.rps, 0.0);
}

TEST(ThroughputSearch, EscalatesWhenFirstOfferIsTooLow)
{
    // Force a 5 Gbps first offer against a ~25 Gbps capacity: the
    // achieved rate tracks the offer (no saturation), so the search
    // must escalate through more windows before confirming.
    ExperimentOptions opts;
    opts.targetSamples = 5000;

    auto low = makeBed("micro_udp_1024", hw::Platform::HostCpu);
    ExperimentOptions low_opts = opts;
    low_opts.initialOfferedGbps = 5.0;
    const Capacity escalated = findCapacity(low, low_opts);
    EXPECT_GE(escalated.attempts, 2);
    EXPECT_TRUE(escalated.saturated);

    // Escalation must converge to the same capacity the default
    // search finds.
    auto ref = makeBed("micro_udp_1024", hw::Platform::HostCpu);
    const Capacity direct = findCapacity(ref, opts);
    EXPECT_NEAR(escalated.rps, direct.rps, direct.rps * 0.15);
}

TEST(ThroughputSearch, WireLimitCountsAsSaturated)
{
    // fio_write is PCIe/wire bound far above the line rate estimate;
    // the offer clamps to the wire and the search must still report
    // saturation rather than spinning all five attempts.
    auto bed = makeBed("micro_rdma_read_1024", hw::Platform::HostCpu);
    ExperimentOptions opts;
    opts.targetSamples = 5000;
    opts.initialOfferedGbps = hw::specs::lineRateGbps;
    const Capacity cap = findCapacity(bed, opts);
    EXPECT_TRUE(cap.saturated);
    EXPECT_EQ(cap.attempts, 1);
}

TEST(ThroughputSearch, OneMemberRackMatchesTestbed)
{
    // A 1-member pass_through rack is the standalone testbed's event
    // sequence, so its capacity search must agree field for field —
    // both from the estimate-derived first offer and from a low one
    // that walks the escalation branch up to the wire cap.
    for (const double initial : {0.0, 5.0}) {
        ExperimentOptions opts;
        opts.targetSamples = 5000;
        opts.initialOfferedGbps = initial;

        auto bed = makeBed("micro_udp_1024", hw::Platform::HostCpu, 7);
        const Capacity alone = findCapacity(bed, opts);

        RackConfig rc;
        rc.workloadId = "micro_udp_1024";
        rc.platform = hw::Platform::HostCpu;
        rc.servers = 1;
        rc.policy = net::DispatchPolicy::PassThrough;
        rc.seed = 7;
        Rack rack(rc);
        const Capacity racked = findCapacity(rack, opts);

        EXPECT_EQ(racked.gbps, alone.gbps) << initial;
        EXPECT_EQ(racked.requestGbps, alone.requestGbps) << initial;
        EXPECT_EQ(racked.rps, alone.rps) << initial;
        EXPECT_EQ(racked.attempts, alone.attempts) << initial;
        EXPECT_EQ(racked.saturated, alone.saturated) << initial;
        if (initial > 0.0) {
            EXPECT_GE(racked.attempts, 2) << "escalation not reached";
        }
    }
}
