#ifndef FLEET_RTL_TAPE_H
#define FLEET_RTL_TAPE_H

/**
 * @file
 * Compiled simulation of rtl::Circuit: a one-pass tape compiler lowers
 * the (optionally optimizer-cleaned, see rtl/opt.h) DAG into a flat
 * vector of fused micro-ops with pre-resolved operand slots, replacing
 * the interpreter's per-node NodeKind switch with dense dispatch over
 * combinational work only.
 *
 * Slot model: every live node owns one uint64_t slot. Constant slots
 * are loaded once at reset; input-port, register-output, and BRAM
 * read-latch slots are written by setInput()/step(); zero-extensions
 * ({0, x}) alias their operand's slot outright (values are already
 * masked, so zext is a no-op on the representation). Only real
 * combinational work (Bin/Un/Mux/Slice/Concat) emits a tape op, and
 * each op carries its width handling pre-computed: result masks, slice
 * shifts, sign-extension shifts, and constant shift amounts are baked
 * into the op at compile time instead of being re-derived every cycle.
 *
 * BatchSimulator (rtl/batch_sim.h) evaluates a TapeProgram across one
 * or many circuit replicas in structure-of-arrays layout, with the
 * rtl::Simulator cycle contract (setInput -> eval -> observe -> step)
 * and bit-identical to it on every observable: output ports, register
 * values, BRAM words. A tape has exactly two evaluators, and both run
 * every lane of a batch: BatchSimulator's SoA sweep, which defines
 * what an op means, and the native kernel rtl/jit.h emits from it.
 */

#include <cstdint>
#include <vector>

#include "rtl/circuit.h"
#include "util/bits.h"

namespace fleet {
namespace rtl {

enum class TapeOpcode : uint8_t
{
    BinAdd, ///< dst = (A + B) & imm
    BinSub, ///< dst = (A - B) & imm
    BinMul, ///< dst = (A * B) & imm
    BinAnd, ///< dst = A & B (operands pre-masked; no result mask needed)
    BinOr,  ///< dst = A | B
    BinXor, ///< dst = A ^ B
    BinShlC, ///< dst = shl64(A, sa) & imm (constant shift)
    BinShrC, ///< dst = shr64(A, sa) (constant shift)
    BinShl, ///< dst = B >= sa(=width) ? 0 : (A << B) & imm
    BinShr, ///< dst = B >= 64 ? 0 : A >> B
    BinEq, BinNe,
    BinUlt, BinUle, BinUgt, BinUge,
    BinSlt, BinSle, BinSgt, BinSge, ///< sa/sb = 64 - operand width
    BinLAnd, ///< dst = (A != 0) & (B != 0)
    BinLOr,  ///< dst = (A != 0) | (B != 0)
    UnNot,   ///< dst = ~A & imm
    UnLNot,  ///< dst = A == 0
    UnNeg,   ///< dst = (0 - A) & imm
    Mux,     ///< dst = C ? A : B
    Slice,   ///< dst = (A >> sa) & imm
    Concat,  ///< dst = shl64(A, sa) | B

    /**
     * Lane-uniform variants: identical semantics to the base opcode,
     * but the tape compiler has proven the flagged operand is a
     * constant slot, i.e. it holds the same value in every lane of a
     * BatchSimulator. The SoA sweep hoists the operand load out of
     * the per-lane loop (one scalar read + broadcast instead of a full
     * lane-stride stream), which matters because the sweep is
     * memory-bound; the jit emitter (rtl/jit.h) emits them as the base
     * opcode, since its kernels inline constants anyway. Commutative
     * ops are canonicalized so the uniform operand is B; const-vs-const
     * ops never reach the tape (folded at circuit construction).
     */
    BinAddU, BinSubU, BinMulU,          ///< B uniform.
    BinAndU, BinOrU, BinXorU,           ///< B uniform.
    BinEqU, BinNeU,                     ///< B uniform.
    BinUltU, BinUleU, BinUgtU, BinUgeU, ///< B uniform (flipped if A was).
    MuxAU, ///< A uniform: dst = C ? const : B
    MuxBU, ///< B uniform: dst = C ? A : const
    MuxU2, ///< A and B uniform: dst = C ? constA : constB
};

/** One fused micro-op. 32 bytes; a tape is evaluated front to back. */
struct TapeOp
{
    TapeOpcode op;
    uint8_t sa = 0; ///< Shift / width auxiliary (see TapeOpcode).
    uint8_t sb = 0;
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    uint64_t imm = 0; ///< Usually the result mask.
};

/**
 * A compiled circuit: the op tape plus the slot bindings of every
 * stateful element. Self-contained — does not reference the source
 * Circuit after compile() returns — so one TapeProgram is shared by
 * every simulator replica of the same processing unit.
 */
struct TapeProgram
{
    struct RegSpec
    {
        int32_t next;
        int32_t enable; ///< -1 = always enabled.
        int32_t out;
        uint64_t init;
    };
    struct BramSpec
    {
        int32_t rdAddr;
        int32_t wrEn;
        int32_t wrAddr;
        int32_t wrData;
        int32_t rdData;
        uint32_t elements;
    };

    std::vector<TapeOp> ops;
    int32_t numSlots = 0;
    /** (slot, value) pairs loaded once at reset. */
    std::vector<std::pair<int32_t, uint64_t>> constSlots;
    std::vector<int32_t> inputSlot; ///< Per input port; -1 = eliminated.
    std::vector<int> inputWidth;
    /**
     * Per output port, the slot of its driving node (the circuit's
     * observable roots, in circuit output order). The JIT backend
     * (rtl/jit.h) keeps chunk-internal intermediates in registers and
     * materializes only these slots, the step-read slots (register
     * next/enable, BRAM ports) and chunk-boundary values — every
     * exactly-observed value in the fits32 sense above.
     */
    std::vector<int32_t> outputSlots;
    std::vector<RegSpec> regs;
    std::vector<BramSpec> brams;
    /** Source-circuit NodeId -> slot; -1 for eliminated nodes. */
    std::vector<int32_t> nodeSlot;

    /**
     * True when at most the low 32 bits of every node can influence any
     * exactly-observed value (output ports, registers, BRAM contents) —
     * a demanded-bits analysis, so circuits with wider interior nodes
     * still qualify when all their consumers are low-bit-closed (e.g. a
     * 32x32 -> 64 multiply whose results are always sliced below bit
     * 32). BatchSimulator then stores lane values as uint32_t — half
     * the memory traffic of the SoA sweep and twice the SIMD lanes per
     * vector. Ports, registers, BRAMs and reports stay bit-identical to
     * the interpreter; value() on an interior node wider than 32 bits
     * may return only its low 32 bits.
     */
    bool fits32 = false;

    /// @name Compile-time statistics (surfaced as trace counters and
    /// in bench/micro_rtl_engines JSON so speedup regressions can be
    /// attributed to optimizer behaviour, not just engine behaviour).
    /// @{
    uint64_t sourceNodes = 0;
    uint64_t nodesEliminated = 0; ///< Source nodes with no slot of their own.
    uint64_t optSourceNodes = 0;  ///< Optimizer input node count.
    uint64_t optResultNodes = 0;  ///< Nodes after DCE/folding/simplify.
    uint64_t optDeadNodes = 0;    ///< Nodes unreachable from roots.
    /// @}

    /**
     * Content hash over everything that determines evaluation semantics
     * (ops field-by-field, const values, reg/BRAM specs, slot count,
     * fits32) — NOT over the compile statistics above. Two tapes with
     * equal hashes evaluate identically, which is what the JIT backend
     * (rtl/jit.h) keys its on-disk artifact cache on.
     */
    uint64_t contentHash() const;

    /**
     * Lower a circuit to a tape. With optimize (default) the circuit is
     * first cleaned by rtl::optimize(); the source circuit itself is
     * never modified (Verilog emission and area accounting keep reading
     * it).
     */
    static TapeProgram compile(const Circuit &circuit, bool optimize = true);

    /** Slot of a source-circuit node; panics if the node was eliminated. */
    int32_t slotOf(NodeId source_node) const;
};

} // namespace rtl
} // namespace fleet

#endif // FLEET_RTL_TAPE_H
