#ifndef FLEET_TESTS_RUN_FENCES_H
#define FLEET_TESTS_RUN_FENCES_H

/**
 * @file
 * Shared fence for tests that run one workload two ways (two PU
 * engines, traced and untraced) and require the channel loop to have
 * decided everything identically: outputs, per-PU stall stats,
 * per-channel stats, and the RunReport with its trace left out.
 */

#include <gtest/gtest.h>

#include <string>

#include "system/fleet_system.h"

namespace fleet {
namespace testfence {

/** `report` with the trace dropped, so traced and untraced runs
 * compare on their simulated outcome alone. */
inline system::RunReport
withoutTrace(system::RunReport report)
{
    report.trace = nullptr;
    return report;
}

inline void
expectSamePuStats(const system::PuStats &a, const system::PuStats &b,
                  const std::string &label)
{
    EXPECT_EQ(a.inputStarvedCycles, b.inputStarvedCycles) << label;
    EXPECT_EQ(a.outputBlockedCycles, b.outputBlockedCycles) << label;
    EXPECT_EQ(a.finishedAtCycle, b.finishedAtCycle) << label;
}

inline void
expectSameChannelStats(const system::ChannelStats &a,
                       const system::ChannelStats &b,
                       const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.numPus, b.numPus) << label;
    EXPECT_EQ(a.inputBytes, b.inputBytes) << label;
    EXPECT_EQ(a.outputBytes, b.outputBytes) << label;
    EXPECT_EQ(a.inputStarvedCycles, b.inputStarvedCycles) << label;
    EXPECT_EQ(a.outputBlockedCycles, b.outputBlockedCycles) << label;
    EXPECT_EQ(a.beatsDelivered, b.beatsDelivered) << label;
    EXPECT_EQ(a.beatsWritten, b.beatsWritten) << label;
    EXPECT_EQ(a.readQueueOccupancySum, b.readQueueOccupancySum) << label;
    EXPECT_EQ(a.writeQueueOccupancySum, b.writeQueueOccupancySum)
        << label;
}

/** Two finished runs of the same workload agree on every simulated
 * result: outputs, PuStats, ChannelStats and RunReport. */
inline void
expectSameRun(const system::FleetSystem &a, const system::FleetSystem &b,
              const std::string &label)
{
    ASSERT_EQ(a.numPus(), b.numPus()) << label;
    EXPECT_TRUE(withoutTrace(a.report()) == withoutTrace(b.report()))
        << label << ": RunReports differ\n"
        << a.report().summary() << "\nvs\n"
        << b.report().summary();
    for (int p = 0; p < a.numPus(); ++p) {
        const std::string pu = label + " PU " + std::to_string(p);
        EXPECT_TRUE(a.output(p) == b.output(p)) << pu << ": output";
        expectSamePuStats(a.puStats(p), b.puStats(p), pu);
    }
    system::SystemStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.cycles, sb.cycles) << label;
    ASSERT_EQ(sa.channels.size(), sb.channels.size()) << label;
    for (size_t c = 0; c < sa.channels.size(); ++c)
        expectSameChannelStats(sa.channels[c], sb.channels[c],
                               label + " channel " + std::to_string(c));
}

} // namespace testfence
} // namespace fleet

#endif // FLEET_TESTS_RUN_FENCES_H
