#ifndef FLEET_SYSTEM_DEVICE_H
#define FLEET_SYSTEM_DEVICE_H

/**
 * @file
 * The per-device vocabulary shared by FleetSystem (fleet_system.h), the
 * cluster layer and the job runtime: which engine evaluates a slot's
 * PU (PuBackend), how a session slot is bound (SlotBinding), and one
 * device's throughput counters (SystemStats). FleetSystem itself is the
 * one simulated device; a cluster::Cluster owns N of them.
 */

#include <cstdint>
#include <optional>
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
    RtlInterp, ///< Per-node RTL interpreter (the reference engine).
    RtlJit, ///< Compiled RTL lowered to native code (rtl/jit.h): each
            ///< channel's PU population runs a shared-object kernel
            ///< generated and compiled at construction (arm) time,
            ///< bit-identical to Rtl/RtlInterp. Falls back to the
            ///< interpreted batch (Rtl) when no host toolchain is
            ///< available (slotBackend() reports the backend actually
            ///< used).
};

/**
 * Session mode, multi-program hosting (ISSUE 8): which compiled program
 * a slot pre-arms, which placement lane it belongs to, and optionally a
 * per-slot PU backend override. All three are pure configuration —
 * frozen at construction and never derived from runtime state — so
 * schedules stay bit-identical across host thread counts and the
 * cross-backend fences hold.
 */
struct SlotBinding
{
    /** Index into the session's program list. */
    uint32_t program = 0;
    /**
     * Placement-lane label the scheduler's JobTag::preferredLane hints
     * match against (e.g. lane 0 = latency-critical Fast slots, lane 1
     * = audit RtlInterp slots). Never inspected by the simulator itself.
     */
    int lane = 0;
    /** Per-slot backend; empty = SystemConfig::backend. */
    std::optional<PuBackend> backend;
};

struct SystemStats
{
    uint64_t cycles = 0;
    uint64_t inputBytes = 0;
    uint64_t outputBytes = 0;
    double clockMHz = 125.0;
    /** Host worker threads the run actually used. */
    int threadsUsed = 1;
    /** Host wall-clock seconds spent inside run(). */
    double wallSeconds = 0.0;
    /** Per-channel utilization breakdown, indexed by channel. */
    std::vector<ChannelStats> channels;

    double seconds() const { return cycles / (clockMHz * 1e6); }
    /** Input-side processing throughput (the paper's headline metric). */
    double inputGBps() const
    {
        return inputBytes / seconds() / 1e9;
    }
    double outputGBps() const { return outputBytes / seconds() / 1e9; }
    double bytesPerCycle() const
    {
        return cycles ? double(inputBytes) / double(cycles) : 0.0;
    }
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_DEVICE_H
