#ifndef FLEET_SYSTEM_DEVICE_H
#define FLEET_SYSTEM_DEVICE_H

/**
 * @file
 * The per-device vocabulary shared by FleetSystem (fleet_system.h), the
 * cluster layer and the job runtime: which engine evaluates the
 * device's PUs (PuBackend; one per device, every slot runs it) and one
 * device's throughput counters (SystemStats). A session slot's only
 * binding is the index of the program it runs. FleetSystem itself is
 * the one simulated device; a cluster::Cluster owns N of them.
 */

#include <cstdint>
#include <vector>

#include "system/channel_shard.h"

namespace fleet {
namespace system {

enum class PuBackend
{
    Fast, ///< Functional-trace replay (cross-checked against the RTL
          ///< engines).
    Rtl,  ///< Compiled RTL: optimizer + op tape, evaluated batched
          ///< (structure-of-arrays) across each channel's PUs. The
          ///< default cycle-accurate backend.
    RtlJit, ///< Compiled RTL lowered to native code (rtl/jit.h): each
            ///< channel's PU population runs a shared-object kernel
            ///< generated and compiled at construction (arm) time,
            ///< bit-identical to Rtl. Falls back to the interpreted
            ///< batch (Rtl) when no host toolchain is available
            ///< (slotBackend() reports the backend actually used).
};

struct SystemStats
{
    uint64_t cycles = 0;
    uint64_t inputBytes = 0;
    uint64_t outputBytes = 0;
    double clockMHz = 125.0;
    /** Host worker threads the run actually used. */
    int threadsUsed = 1;
    /** Host wall-clock seconds spent stepping the channels (run() or
     * stepEpoch slices). */
    double wallSeconds = 0.0;
    /** Per-channel utilization breakdown, indexed by channel. */
    std::vector<ChannelStats> channels;

    double seconds() const { return cycles / (clockMHz * 1e6); }
    /** Input-side processing throughput (the paper's headline metric);
     * 0 before any cycle has run, as bytesPerCycle(). */
    double inputGBps() const
    {
        return cycles ? inputBytes / seconds() / 1e9 : 0.0;
    }
    double outputGBps() const
    {
        return cycles ? outputBytes / seconds() / 1e9 : 0.0;
    }
    double bytesPerCycle() const
    {
        return cycles ? double(inputBytes) / double(cycles) : 0.0;
    }
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_DEVICE_H
