#ifndef FLEET_RTL_BATCH_SIM_H
#define FLEET_RTL_BATCH_SIM_H

/**
 * @file
 * Batched evaluation of one TapeProgram across many independent circuit
 * replicas ("lanes") in structure-of-arrays layout: slot s of lane l
 * lives at values[s * lanes + l], so the inner per-lane loop of every
 * tape op is a contiguous, branch-light sweep the compiler
 * auto-vectorizes. This is what makes the cycle-accurate RTL backend
 * viable at full PU counts: all PUs of a memory channel advance through
 * the same op tape together instead of each replica re-dispatching the
 * whole netlist.
 *
 * Lanes are fully independent (separate registers, BRAMs, inputs); each
 * lane is bit-identical to the rtl::Simulator reference interpreter.
 * evalLane()/stepLane() run a single lane standalone, so one lane can
 * also serve as an ordinary ProcessingUnit in single-PU testbenches.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "rtl/tape.h"

namespace fleet {
namespace rtl {

class JitProgram;

/**
 * 64-byte (cache-line) aligned allocator for the SoA state arrays. The
 * native jit kernel (rtl/jit.h) issues full-cache-line vector loads and
 * stores on slot rows; with the default 16-byte operator-new alignment
 * every one of those accesses straddles two lines, which costs ~1.5x on
 * eval throughput. Alignment also helps the interpreter's
 * auto-vectorized sweeps (no peeling prologues).
 */
template <typename T>
struct CacheAlignedAlloc
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    CacheAlignedAlloc() = default;
    template <typename U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U> &) noexcept
    {
    }
    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }
    template <typename U>
    bool operator==(const CacheAlignedAlloc<U> &) const noexcept
    {
        return true;
    }
};

template <typename T>
using AlignedVec = std::vector<T, CacheAlignedAlloc<T>>;

class BatchSimulator
{
  public:
    BatchSimulator(std::shared_ptr<const TapeProgram> tape, int lanes);

    int lanes() const { return lanes_; }
    const TapeProgram &tape() const { return *tape_; }

    /**
     * Lane element width in bits: 32 when no observable value depends
     * on bits above 32 anywhere in the circuit (TapeProgram::fits32) —
     * half the SoA traffic, twice the SIMD lanes per vector — else 64.
     * Ports, registers and BRAMs are bit-identical either way; value()
     * on an interior node wider than 32 bits may be truncated to its
     * low 32 bits in 32-bit mode.
     */
    int elementBits() const { return elem32_ ? 32 : 64; }

    void reset();
    void resetLane(int lane);
    void setInput(int lane, int port_index, uint64_t value)
    {
        int32_t s = tape_->inputSlot[port_index];
        if (s < 0)
            return;
        uint64_t v = truncTo(value, tape_->inputWidth[port_index]);
        if (elem32_)
            slots32_[size_t(s) * lanes_ + lane] = uint32_t(v);
        else
            slots64_[size_t(s) * lanes_ + lane] = v;
    }

    /**
     * Attach a natively compiled kernel (rtl/jit.h): evalAll/evalLane
     * and step/stepLane dispatch to the generated code instead of the
     * interpreter sweeps. The kernel must have been compiled for this
     * exact tape, lane count and element width (checked via
     * JitProgram::cacheKey; panics on mismatch — attaching is a
     * construction-time decision, not a data-dependent one). All state
     * stays in this simulator's arrays, so reset/setInput/value and
     * the bit-identity contract are unchanged.
     */
    void attachJit(std::shared_ptr<const JitProgram> jit);
    bool jitAttached() const { return jit_ != nullptr; }

    /** Evaluate every lane's combinational logic (SoA, vectorized). */
    void evalAll();
    /** Evaluate one lane only (scalar; standalone-lane use). */
    void evalLane(int lane);

    /**
     * Value of a source-circuit node as of the last eval. With a jit
     * kernel attached, exact for output-port nodes, register outputs
     * and BRAM read data; an interior node the generated code keeps in
     * a machine register may read stale (the fits32-style
     * observability weakening, see rtl/jit.h).
     */
    uint64_t value(int lane, NodeId source_node) const
    {
        return valueAtSlot(lane, tape_->slotOf(source_node));
    }

    /**
     * Same, addressed by tape slot (tape().slotOf(node)). Lets a
     * tight observer loop hoist the node-to-slot lookup, which
     * otherwise dominates when reading a few ports across many lanes
     * every cycle.
     */
    uint64_t valueAtSlot(int lane, int32_t slot) const
    {
        size_t idx = size_t(slot) * lanes_ + lane;
        return elem32_ ? slots32_[idx] : slots64_[idx];
    }

    /** Clock edge for every lane. */
    void step();
    /** Clock edge for one lane only. */
    void stepLane(int lane);

    uint64_t regValue(int lane, int reg_index) const;
    uint64_t bramWord(int lane, int bram_index, int addr) const;

  private:
    void stepRange(int lane_lo, int lane_hi);

    std::shared_ptr<const TapeProgram> tape_;
    int lanes_;
    bool elem32_; ///< Storage element type; see elementBits().
    std::shared_ptr<const JitProgram> jit_; ///< Optional native kernel.
    std::vector<void *> bramPtrs_; ///< Per-BRAM SoA base, for jit_->step.

    /**
     * Exactly one of the two storage sets is sized, per elem32_.
     * Layout in both: slots [slot * lanes + lane], regs
     * [reg * lanes + lane], each BRAM [addr * lanes + lane] (SoA so
     * step() vectorizes too), latch scratch [bram * lanes + lane].
     */
    AlignedVec<uint64_t> slots64_, regValues64_, latchTmp64_;
    std::vector<AlignedVec<uint64_t>> bramMems64_;
    AlignedVec<uint32_t> slots32_, regValues32_, latchTmp32_;
    std::vector<AlignedVec<uint32_t>> bramMems32_;
};

} // namespace rtl
} // namespace fleet

#endif // FLEET_RTL_BATCH_SIM_H
