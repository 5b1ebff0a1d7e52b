#include "rtl/batch_sim.h"

#include <algorithm>
#include <type_traits>

#include "rtl/jit.h"
#include "util/logging.h"

namespace fleet {
namespace rtl {

namespace {

/**
 * The SoA sweeps below are compiled as multi-versioned functions where
 * the toolchain supports it: GCC/Clang emit default, AVX2 and AVX-512
 * clones plus an ifunc resolver, so a single portable binary picks the
 * widest vector sweep the host CPU supports at load time. This is
 * deliberately *not* a global -march flag: only these leaf functions
 * are specialized, so no inline/COMDAT symbol compiled for a wider ISA
 * can leak into translation units that must stay baseline.
 */
#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(__SANITIZE_THREAD__)
#define FLEET_BATCH_TARGET_CLONES \
    __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define FLEET_BATCH_TARGET_CLONES
#endif

/**
 * One op-tape sweep over all lanes: the reference semantics of every
 * TapeOpcode, which the jit emitter (rtl/jit.cc) reproduces. T is the
 * lane element type (TapeProgram::fits32 -> uint32_t). T only has to
 * be wide enough for every node: all semantics are width-masked, so
 * narrowing the representation never changes a value, and the
 * 64-bit-specific guards (shift ranges, sign-extension shifts stored
 * as 64 - width) are rebased onto EB. Marked always_inline so each
 * target_clones wrapper below recompiles the whole switch for its
 * vector ISA.
 */
template <typename T>
[[gnu::always_inline]] inline void
evalOpsBatchedT(const TapeOp *ops, size_t num_ops, T *base, const int L)
{
    constexpr int EB = int(sizeof(T)) * 8;
    constexpr int RB = 64 - EB; ///< Sign-shift rebase (amounts are 64-based).
    using S = std::make_signed_t<T>;
    for (size_t i = 0; i < num_ops; ++i) {
        const TapeOp &op = ops[i];
        T *__restrict dst = base + size_t(op.dst) * L;
        const T *__restrict A = base + size_t(op.a) * L;
        const T *__restrict B = base + size_t(op.b) * L;
        const T imm = T(op.imm);
        switch (op.op) {
          case TapeOpcode::BinAdd:
            for (int l = 0; l < L; ++l) dst[l] = (A[l] + B[l]) & imm;
            break;
          case TapeOpcode::BinSub:
            for (int l = 0; l < L; ++l) dst[l] = (A[l] - B[l]) & imm;
            break;
          case TapeOpcode::BinMul:
            for (int l = 0; l < L; ++l) dst[l] = (A[l] * B[l]) & imm;
            break;
          case TapeOpcode::BinAnd:
            for (int l = 0; l < L; ++l) dst[l] = A[l] & B[l];
            break;
          case TapeOpcode::BinOr:
            for (int l = 0; l < L; ++l) dst[l] = A[l] | B[l];
            break;
          case TapeOpcode::BinXor:
            for (int l = 0; l < L; ++l) dst[l] = A[l] ^ B[l];
            break;
          case TapeOpcode::BinShlC: {
            // Constant shift: hoist the >= EB guard out of the lane loop.
            if (op.sa >= EB) {
                for (int l = 0; l < L; ++l) dst[l] = 0;
            } else {
                const int s = op.sa;
                for (int l = 0; l < L; ++l) dst[l] = (A[l] << s) & imm;
            }
            break;
          }
          case TapeOpcode::BinShrC: {
            if (op.sa >= EB) {
                for (int l = 0; l < L; ++l) dst[l] = 0;
            } else {
                const int s = op.sa;
                for (int l = 0; l < L; ++l) dst[l] = A[l] >> s;
            }
            break;
          }
          case TapeOpcode::BinShl: {
            // op.sa (node width) may exceed EB under demanded-width
            // narrowing; the low EB bits are 0 for any shift >= EB.
            const T w = op.sa >= EB ? T(EB) : T(op.sa);
            for (int l = 0; l < L; ++l)
                dst[l] = B[l] >= w ? T(0) : T((A[l] << B[l]) & imm);
            break;
          }
          case TapeOpcode::BinShr:
            for (int l = 0; l < L; ++l)
                dst[l] = B[l] >= T(EB) ? T(0) : T(A[l] >> B[l]);
            break;
          case TapeOpcode::BinEq:
            for (int l = 0; l < L; ++l) dst[l] = A[l] == B[l];
            break;
          case TapeOpcode::BinNe:
            for (int l = 0; l < L; ++l) dst[l] = A[l] != B[l];
            break;
          case TapeOpcode::BinUlt:
            for (int l = 0; l < L; ++l) dst[l] = A[l] < B[l];
            break;
          case TapeOpcode::BinUle:
            for (int l = 0; l < L; ++l) dst[l] = A[l] <= B[l];
            break;
          case TapeOpcode::BinUgt:
            for (int l = 0; l < L; ++l) dst[l] = A[l] > B[l];
            break;
          case TapeOpcode::BinUge:
            for (int l = 0; l < L; ++l) dst[l] = A[l] >= B[l];
            break;
          case TapeOpcode::BinSlt: {
            const int sa = op.sa - RB, sb = op.sb - RB;
            for (int l = 0; l < L; ++l)
                dst[l] = (S(T(A[l] << sa)) >> sa) < (S(T(B[l] << sb)) >> sb);
            break;
          }
          case TapeOpcode::BinSle: {
            const int sa = op.sa - RB, sb = op.sb - RB;
            for (int l = 0; l < L; ++l)
                dst[l] = (S(T(A[l] << sa)) >> sa) <= (S(T(B[l] << sb)) >> sb);
            break;
          }
          case TapeOpcode::BinSgt: {
            const int sa = op.sa - RB, sb = op.sb - RB;
            for (int l = 0; l < L; ++l)
                dst[l] = (S(T(A[l] << sa)) >> sa) > (S(T(B[l] << sb)) >> sb);
            break;
          }
          case TapeOpcode::BinSge: {
            const int sa = op.sa - RB, sb = op.sb - RB;
            for (int l = 0; l < L; ++l)
                dst[l] = (S(T(A[l] << sa)) >> sa) >= (S(T(B[l] << sb)) >> sb);
            break;
          }
          case TapeOpcode::BinLAnd:
            for (int l = 0; l < L; ++l)
                dst[l] = T(A[l] != 0) & T(B[l] != 0);
            break;
          case TapeOpcode::BinLOr:
            for (int l = 0; l < L; ++l)
                dst[l] = T(A[l] != 0) | T(B[l] != 0);
            break;
          case TapeOpcode::UnNot:
            for (int l = 0; l < L; ++l) dst[l] = ~A[l] & imm;
            break;
          case TapeOpcode::UnLNot:
            for (int l = 0; l < L; ++l) dst[l] = A[l] == 0;
            break;
          case TapeOpcode::UnNeg:
            for (int l = 0; l < L; ++l) dst[l] = (T(0) - A[l]) & imm;
            break;
          case TapeOpcode::Mux: {
            const T *__restrict C = base + size_t(op.c) * L;
            for (int l = 0; l < L; ++l)
                dst[l] = C[l] != 0 ? A[l] : B[l];
            break;
          }
          case TapeOpcode::Slice: {
            const int s = op.sa;
            for (int l = 0; l < L; ++l) dst[l] = (A[l] >> s) & imm;
            break;
          }
          case TapeOpcode::Concat: {
            if (op.sa >= EB) {
                for (int l = 0; l < L; ++l) dst[l] = B[l];
            } else {
                const int s = op.sa;
                for (int l = 0; l < L; ++l) dst[l] = (A[l] << s) | B[l];
            }
            break;
          }

          // Lane-uniform variants: the flagged operand is a constant
          // slot, so every lane holds the same value — read it once and
          // let the vectorizer broadcast it, instead of streaming a
          // redundant element-per-lane operand through the cache.
          case TapeOpcode::BinAddU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = (A[l] + bb) & imm;
            break;
          }
          case TapeOpcode::BinSubU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = (A[l] - bb) & imm;
            break;
          }
          case TapeOpcode::BinMulU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = (A[l] * bb) & imm;
            break;
          }
          case TapeOpcode::BinAndU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] & bb;
            break;
          }
          case TapeOpcode::BinOrU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] | bb;
            break;
          }
          case TapeOpcode::BinXorU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] ^ bb;
            break;
          }
          case TapeOpcode::BinEqU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] == bb;
            break;
          }
          case TapeOpcode::BinNeU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] != bb;
            break;
          }
          case TapeOpcode::BinUltU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] < bb;
            break;
          }
          case TapeOpcode::BinUleU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] <= bb;
            break;
          }
          case TapeOpcode::BinUgtU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] > bb;
            break;
          }
          case TapeOpcode::BinUgeU: {
            const T bb = B[0];
            for (int l = 0; l < L; ++l) dst[l] = A[l] >= bb;
            break;
          }
          case TapeOpcode::MuxAU: {
            const T *__restrict C = base + size_t(op.c) * L;
            const T aa = A[0];
            for (int l = 0; l < L; ++l)
                dst[l] = C[l] != 0 ? aa : B[l];
            break;
          }
          case TapeOpcode::MuxBU: {
            const T *__restrict C = base + size_t(op.c) * L;
            const T bb = B[0];
            for (int l = 0; l < L; ++l)
                dst[l] = C[l] != 0 ? A[l] : bb;
            break;
          }
          case TapeOpcode::MuxU2: {
            const T *__restrict C = base + size_t(op.c) * L;
            const T aa = A[0], bb = B[0];
            for (int l = 0; l < L; ++l)
                dst[l] = C[l] != 0 ? aa : bb;
            break;
          }
        }
    }
}

FLEET_BATCH_TARGET_CLONES void
evalOpsBatched64(const TapeOp *ops, size_t num_ops, uint64_t *base,
                 const int L)
{
    evalOpsBatchedT<uint64_t>(ops, num_ops, base, L);
}

FLEET_BATCH_TARGET_CLONES void
evalOpsBatched32(const TapeOp *ops, size_t num_ops, uint32_t *base,
                 const int L)
{
    evalOpsBatchedT<uint32_t>(ops, num_ops, base, L);
}

template <typename T>
[[gnu::always_inline]] inline void
stepBatchedT(const TapeProgram &t, T *slots, T *reg_values,
             std::vector<AlignedVec<T>> &bram_mems, T *latch_tmp,
             const int L)
{
    // Same commit ordering as rtl::Simulator::step(): BRAM reads latch
    // first (read-first semantics) and no slot is overwritten until
    // every consumer of the pre-edge comb values has been read.
    for (size_t i = 0; i < t.brams.size(); ++i) {
        const auto &b = t.brams[i];
        const T *rd_addr = &slots[size_t(b.rdAddr) * L];
        const T *wr_en = &slots[size_t(b.wrEn) * L];
        const T *wr_addr = &slots[size_t(b.wrAddr) * L];
        const T *wr_data = &slots[size_t(b.wrData) * L];
        auto &mem = bram_mems[i];
        T *latch = &latch_tmp[i * L];
        for (int l = 0; l < L; ++l) {
            latch[l] = rd_addr[l] < b.elements
                           ? mem[size_t(rd_addr[l]) * L + l]
                           : T(0);
            if (wr_en[l] != 0 && wr_addr[l] < b.elements)
                mem[size_t(wr_addr[l]) * L + l] = wr_data[l];
        }
    }
    for (size_t i = 0; i < t.regs.size(); ++i) {
        const auto &r = t.regs[i];
        const T *next = &slots[size_t(r.next) * L];
        T *rv = &reg_values[i * L];
        if (r.enable < 0) {
            for (int l = 0; l < L; ++l)
                rv[l] = next[l];
        } else {
            const T *en = &slots[size_t(r.enable) * L];
            for (int l = 0; l < L; ++l)
                if (en[l] != 0)
                    rv[l] = next[l];
        }
    }
    // Publish: BRAM latches, then register outputs.
    for (size_t i = 0; i < t.brams.size(); ++i) {
        T *out = &slots[size_t(t.brams[i].rdData) * L];
        const T *latch = &latch_tmp[i * L];
        for (int l = 0; l < L; ++l)
            out[l] = latch[l];
    }
    for (size_t i = 0; i < t.regs.size(); ++i) {
        T *out = &slots[size_t(t.regs[i].out) * L];
        const T *rv = &reg_values[i * L];
        for (int l = 0; l < L; ++l)
            out[l] = rv[l];
    }
}

FLEET_BATCH_TARGET_CLONES void
stepBatched64(const TapeProgram &t, uint64_t *slots, uint64_t *reg_values,
              std::vector<AlignedVec<uint64_t>> &bram_mems,
              uint64_t *latch_tmp, const int L)
{
    stepBatchedT<uint64_t>(t, slots, reg_values, bram_mems, latch_tmp, L);
}

FLEET_BATCH_TARGET_CLONES void
stepBatched32(const TapeProgram &t, uint32_t *slots, uint32_t *reg_values,
              std::vector<AlignedVec<uint32_t>> &bram_mems,
              uint32_t *latch_tmp, const int L)
{
    stepBatchedT<uint32_t>(t, slots, reg_values, bram_mems, latch_tmp, L);
}

template <typename T>
void
resetLaneT(const TapeProgram &t, int lanes, int lane, AlignedVec<T> &slots,
           AlignedVec<T> &reg_values, std::vector<AlignedVec<T>> &bram_mems)
{
    for (int32_t s = 0; s < t.numSlots; ++s)
        slots[size_t(s) * lanes + lane] = 0;
    for (const auto &[s, v] : t.constSlots)
        slots[size_t(s) * lanes + lane] = T(v);
    for (size_t i = 0; i < t.regs.size(); ++i) {
        reg_values[i * lanes + lane] = T(t.regs[i].init);
        slots[size_t(t.regs[i].out) * lanes + lane] = T(t.regs[i].init);
    }
    for (size_t i = 0; i < t.brams.size(); ++i) {
        auto &mem = bram_mems[i];
        for (uint32_t a = 0; a < t.brams[i].elements; ++a)
            mem[size_t(a) * lanes + lane] = 0;
    }
}

} // namespace

BatchSimulator::BatchSimulator(std::shared_ptr<const TapeProgram> tape,
                               int lanes)
    : tape_(std::move(tape)), lanes_(lanes), elem32_(tape_->fits32)
{
    if (lanes_ < 1)
        panic("rtl: batch: lane count must be >= 1");
    if (elem32_) {
        slots32_.resize(size_t(tape_->numSlots) * lanes_, 0);
        regValues32_.resize(tape_->regs.size() * lanes_, 0);
        for (const auto &b : tape_->brams)
            bramMems32_.emplace_back(size_t(b.elements) * lanes_, 0);
        latchTmp32_.resize(tape_->brams.size() * lanes_, 0);
    } else {
        slots64_.resize(size_t(tape_->numSlots) * lanes_, 0);
        regValues64_.resize(tape_->regs.size() * lanes_, 0);
        for (const auto &b : tape_->brams)
            bramMems64_.emplace_back(size_t(b.elements) * lanes_, 0);
        latchTmp64_.resize(tape_->brams.size() * lanes_, 0);
    }
    reset();
}

void
BatchSimulator::reset()
{
    for (int l = 0; l < lanes_; ++l)
        resetLane(l);
}

void
BatchSimulator::resetLane(int lane)
{
    if (elem32_)
        resetLaneT(*tape_, lanes_, lane, slots32_, regValues32_, bramMems32_);
    else
        resetLaneT(*tape_, lanes_, lane, slots64_, regValues64_, bramMems64_);
}

void
BatchSimulator::attachJit(std::shared_ptr<const JitProgram> jit)
{
    if (!jit)
        panic("rtl: batch: attachJit(nullptr)");
    if (jit->lanes() != lanes_ || jit->elementBits() != elementBits() ||
        jit->key() != JitProgram::cacheKey(*tape_, lanes_))
        panic("rtl: batch: jit kernel does not match this tape/lanes");
    jit_ = std::move(jit);
    bramPtrs_.clear();
    if (elem32_)
        for (auto &mem : bramMems32_)
            bramPtrs_.push_back(mem.data());
    else
        for (auto &mem : bramMems64_)
            bramPtrs_.push_back(mem.data());
}

void
BatchSimulator::evalAll()
{
    if (jit_) {
        jit_->eval(elem32_ ? (void *)slots32_.data()
                           : (void *)slots64_.data());
        return;
    }
    if (elem32_)
        evalOpsBatched32(tape_->ops.data(), tape_->ops.size(),
                         slots32_.data(), lanes_);
    else
        evalOpsBatched64(tape_->ops.data(), tape_->ops.size(),
                         slots64_.data(), lanes_);
}

void
BatchSimulator::step()
{
    if (jit_) {
        if (elem32_)
            jit_->step(slots32_.data(), regValues32_.data(),
                       bramPtrs_.data());
        else
            jit_->step(slots64_.data(), regValues64_.data(),
                       bramPtrs_.data());
        return;
    }
    if (elem32_)
        stepBatched32(*tape_, slots32_.data(), regValues32_.data(),
                      bramMems32_, latchTmp32_.data(), lanes_);
    else
        stepBatched64(*tape_, slots64_.data(), regValues64_.data(),
                      bramMems64_, latchTmp64_.data(), lanes_);
}

uint64_t
BatchSimulator::regValue(int lane, int reg_index) const
{
    // Read the register's published out slot, not the regValues_
    // staging row: the two are equal after every reset and clock edge
    // (publish copies staging to the slot), and reading the slot lets
    // the native jit step skip the staging array entirely when no
    // register is chained off another register's output (rtl/jit.cc).
    size_t idx =
        size_t(tape_->regs.at(size_t(reg_index)).out) * lanes_ + lane;
    return elem32_ ? slots32_.at(idx) : slots64_.at(idx);
}

uint64_t
BatchSimulator::bramWord(int lane, int bram_index, int addr) const
{
    const auto &spec = tape_->brams.at(bram_index);
    if (addr < 0 || uint32_t(addr) >= spec.elements)
        panic("rtl: batch: bramWord address out of range");
    size_t idx = size_t(addr) * lanes_ + lane;
    return elem32_ ? bramMems32_[bram_index][idx]
                   : bramMems64_[bram_index][idx];
}

} // namespace rtl
} // namespace fleet
