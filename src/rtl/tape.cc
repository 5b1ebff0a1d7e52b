#include "rtl/tape.h"

#include <algorithm>
#include <optional>

#include "rtl/opt.h"
#include "util/logging.h"

namespace fleet {
namespace rtl {

namespace {

TapeOp
lowerBin(const Circuit &c, const Node &n, int32_t dst, int32_t a, int32_t b)
{
    const auto &nodes = c.nodes();
    const int wa = nodes[n.a].width, wb = nodes[n.b].width;
    const int w = n.width;
    TapeOp op;
    op.dst = dst;
    op.a = a;
    op.b = b;
    op.imm = mask64(w);
    switch (n.binOp) {
      case BinOp::Add: op.op = TapeOpcode::BinAdd; break;
      case BinOp::Sub: op.op = TapeOpcode::BinSub; break;
      case BinOp::Mul: op.op = TapeOpcode::BinMul; break;
      case BinOp::And: op.op = TapeOpcode::BinAnd; break;
      case BinOp::Or:  op.op = TapeOpcode::BinOr; break;
      case BinOp::Xor: op.op = TapeOpcode::BinXor; break;
      case BinOp::Shl:
        if (nodes[n.b].kind == NodeKind::Const) {
            op.op = TapeOpcode::BinShlC;
            op.sa = uint8_t(std::min<uint64_t>(nodes[n.b].value, 64));
        } else {
            op.op = TapeOpcode::BinShl;
            op.sa = uint8_t(w);
        }
        break;
      case BinOp::Shr:
        if (nodes[n.b].kind == NodeKind::Const) {
            op.op = TapeOpcode::BinShrC;
            op.sa = uint8_t(std::min<uint64_t>(nodes[n.b].value, 64));
        } else {
            op.op = TapeOpcode::BinShr;
        }
        break;
      case BinOp::Eq:  op.op = TapeOpcode::BinEq; break;
      case BinOp::Ne:  op.op = TapeOpcode::BinNe; break;
      case BinOp::Ult: op.op = TapeOpcode::BinUlt; break;
      case BinOp::Ule: op.op = TapeOpcode::BinUle; break;
      case BinOp::Ugt: op.op = TapeOpcode::BinUgt; break;
      case BinOp::Uge: op.op = TapeOpcode::BinUge; break;
      case BinOp::Slt:
      case BinOp::Sle:
      case BinOp::Sgt:
      case BinOp::Sge:
        op.op = n.binOp == BinOp::Slt   ? TapeOpcode::BinSlt
                : n.binOp == BinOp::Sle ? TapeOpcode::BinSle
                : n.binOp == BinOp::Sgt ? TapeOpcode::BinSgt
                                        : TapeOpcode::BinSge;
        op.sa = uint8_t(64 - wa);
        op.sb = uint8_t(64 - wb);
        break;
      case BinOp::LAnd:
        // 1-bit operands are already 0/1 under the masking invariant,
        // so logical and bitwise coincide and the bitwise form needs no
        // != 0 normalization per element.
        op.op = wa == 1 && wb == 1 ? TapeOpcode::BinAnd
                                   : TapeOpcode::BinLAnd;
        break;
      case BinOp::LOr:
        op.op = wa == 1 && wb == 1 ? TapeOpcode::BinOr : TapeOpcode::BinLOr;
        break;
    }
    return op;
}

/** Base opcode -> lane-uniform-B variant (identity if none exists). */
TapeOpcode
uniformVariant(TapeOpcode op)
{
    switch (op) {
      case TapeOpcode::BinAdd: return TapeOpcode::BinAddU;
      case TapeOpcode::BinSub: return TapeOpcode::BinSubU;
      case TapeOpcode::BinMul: return TapeOpcode::BinMulU;
      case TapeOpcode::BinAnd: return TapeOpcode::BinAndU;
      case TapeOpcode::BinOr:  return TapeOpcode::BinOrU;
      case TapeOpcode::BinXor: return TapeOpcode::BinXorU;
      case TapeOpcode::BinEq:  return TapeOpcode::BinEqU;
      case TapeOpcode::BinNe:  return TapeOpcode::BinNeU;
      case TapeOpcode::BinUlt: return TapeOpcode::BinUltU;
      case TapeOpcode::BinUle: return TapeOpcode::BinUleU;
      case TapeOpcode::BinUgt: return TapeOpcode::BinUgtU;
      case TapeOpcode::BinUge: return TapeOpcode::BinUgeU;
      default: return op;
    }
}

/**
 * Rewrite ops whose operands live in constant slots to the lane-uniform
 * variants (canonicalizing the uniform operand to B), so the batched
 * evaluator can hoist those loads out of the per-lane loop. Pure
 * re-tagging: scalar semantics are unchanged.
 */
void
specializeUniformOperands(TapeProgram &t)
{
    std::vector<char> uni(size_t(t.numSlots), 0);
    for (const auto &[s, v] : t.constSlots)
        uni[size_t(s)] = 1;
    for (TapeOp &op : t.ops) {
        switch (op.op) {
          case TapeOpcode::BinAdd:
          case TapeOpcode::BinMul:
          case TapeOpcode::BinAnd:
          case TapeOpcode::BinOr:
          case TapeOpcode::BinXor:
          case TapeOpcode::BinEq:
          case TapeOpcode::BinNe:
            if (uni[op.a] && !uni[op.b])
                std::swap(op.a, op.b); // commutative
            if (uni[op.b])
                op.op = uniformVariant(op.op);
            break;
          case TapeOpcode::BinSub:
            if (uni[op.b])
                op.op = TapeOpcode::BinSubU;
            break;
          case TapeOpcode::BinUlt:
          case TapeOpcode::BinUle:
          case TapeOpcode::BinUgt:
          case TapeOpcode::BinUge:
            if (uni[op.a] && !uni[op.b]) {
                std::swap(op.a, op.b); // K < x  <=>  x > K, etc.
                op.op = op.op == TapeOpcode::BinUlt   ? TapeOpcode::BinUgt
                        : op.op == TapeOpcode::BinUle ? TapeOpcode::BinUge
                        : op.op == TapeOpcode::BinUgt ? TapeOpcode::BinUlt
                                                      : TapeOpcode::BinUle;
            }
            if (uni[op.b])
                op.op = uniformVariant(op.op);
            break;
          case TapeOpcode::Mux:
            op.op = uni[op.a] && uni[op.b] ? TapeOpcode::MuxU2
                    : uni[op.a]            ? TapeOpcode::MuxAU
                    : uni[op.b]            ? TapeOpcode::MuxBU
                                           : TapeOpcode::Mux;
            break;
          default:
            break;
        }
    }
}

/**
 * Demanded bits per node: only the low demanded[i] bits of node i can
 * influence any exactly-observed value (output ports, registers, BRAM
 * contents). Used to decide whether 32-bit lane storage is exact for
 * everything observable even when the circuit contains wider nodes —
 * e.g. a 32x32 -> 64 multiply whose consumers all slice bits < 32.
 *
 * Ports, registers and BRAMs demand every bit (they are compared
 * bit-for-bit against the interpreter), as do operands that feed
 * non-low-bit-closed ops (comparisons, right shifts, logical tests).
 * Low-bit-closed ops (Add/Sub/Mul/Shl/And/Or/Xor/Not/Neg/Mux/Concat/
 * Slice) propagate only the bits their consumers demand. Nodes nothing
 * demands (dead code when compiling unoptimized) conservatively demand
 * their full width, preserving value() on them.
 */
std::vector<int>
demandedWidths(const Circuit &c)
{
    const auto &nodes = c.nodes();
    std::vector<int> demand(nodes.size(), 0);
    auto want = [&](NodeId n, int bits) {
        if (n == kNoNode)
            return;
        bits = std::min(bits, nodes[n].width);
        demand[n] = std::max(demand[n], bits);
    };
    auto wantFull = [&](NodeId n) {
        if (n != kNoNode)
            want(n, nodes[n].width);
    };
    for (const auto &o : c.outputs())
        wantFull(o.node);
    for (const auto &r : c.regs()) {
        wantFull(r.out);
        wantFull(r.next);
        wantFull(r.enable);
    }
    for (const auto &b : c.brams()) {
        wantFull(b.rdData);
        wantFull(b.rdAddr);
        wantFull(b.wrEn);
        wantFull(b.wrAddr);
        wantFull(b.wrData);
    }
    // Reverse-topological sweep: node ids are topo-ordered, so every
    // consumer of node i has a higher id and was already visited.
    for (size_t i = nodes.size(); i-- > 0;) {
        const Node &n = nodes[i];
        const int k = demand[i];
        if (k == 0)
            continue; // Dead here; made conservative after the sweep.
        switch (n.kind) {
          case NodeKind::Const:
          case NodeKind::Input:
          case NodeKind::RegOut:
          case NodeKind::BramRdData:
            break;
          case NodeKind::Bin:
            switch (n.binOp) {
              case BinOp::Add:
              case BinOp::Sub:
              case BinOp::Mul:
              case BinOp::And:
              case BinOp::Or:
              case BinOp::Xor:
                want(n.a, k);
                want(n.b, k);
                break;
              case BinOp::Shl:
                want(n.a, k);
                wantFull(n.b);
                break;
              case BinOp::Shr:
                // A constant shift pulls bits [s, s+k) down; a variable
                // shift can reach any bit.
                if (nodes[n.b].kind == NodeKind::Const)
                    want(n.a,
                         k + int(std::min<uint64_t>(nodes[n.b].value, 64)));
                else
                    wantFull(n.a);
                wantFull(n.b);
                break;
              default: // Comparisons and logical ops read every bit.
                wantFull(n.a);
                wantFull(n.b);
                break;
            }
            break;
          case NodeKind::Un:
            if (n.unOp == UnOp::LNot)
                wantFull(n.a);
            else
                want(n.a, k);
            break;
          case NodeKind::Mux:
            want(n.a, k);
            want(n.b, k);
            wantFull(n.c);
            break;
          case NodeKind::Slice:
            want(n.a, n.index + k);
            break;
          case NodeKind::Concat:
            // {a, b}: b is the low part.
            want(n.b, k);
            if (k > nodes[n.b].width)
                want(n.a, k - nodes[n.b].width);
            break;
        }
    }
    for (size_t i = 0; i < nodes.size(); ++i)
        if (demand[i] == 0)
            demand[i] = nodes[i].width;
    return demand;
}

} // namespace

TapeProgram
TapeProgram::compile(const Circuit &circuit, bool optimize)
{
    circuit.validate();

    // Optimize into a scratch circuit; the source is left untouched so
    // Verilog emission and area accounting keep seeing synthesis truth.
    std::optional<OptResult> opt_result;
    const Circuit *c = &circuit;
    std::vector<NodeId> source_map; // source id -> id in *c
    if (optimize) {
        opt_result = rtl::optimize(circuit);
        c = &opt_result->circuit;
        source_map = std::move(opt_result->nodeMap);
    } else {
        source_map.resize(circuit.nodes().size());
        for (size_t i = 0; i < source_map.size(); ++i)
            source_map[i] = static_cast<NodeId>(i);
    }

    const auto &nodes = c->nodes();
    TapeProgram t;
    t.inputSlot.assign(c->inputs().size(), -1);
    t.inputWidth.resize(c->inputs().size());
    for (size_t i = 0; i < c->inputs().size(); ++i)
        t.inputWidth[i] = c->inputs()[i].width;
    t.regs.resize(c->regs().size());
    t.brams.resize(c->brams().size());

    // One forward pass: allocate a slot per node, emit ops for real
    // combinational work, alias pure zero-extensions to their operand.
    std::vector<int32_t> slot(nodes.size(), -1);
    auto new_slot = [&t]() { return t.numSlots++; };
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        switch (n.kind) {
          case NodeKind::Const:
            slot[i] = new_slot();
            t.constSlots.emplace_back(slot[i], n.value);
            break;
          case NodeKind::Input:
            slot[i] = new_slot();
            t.inputSlot[n.index] = slot[i];
            break;
          case NodeKind::RegOut:
            slot[i] = new_slot();
            t.regs[n.index].out = slot[i];
            t.regs[n.index].init = c->regs()[n.index].init;
            break;
          case NodeKind::BramRdData:
            slot[i] = new_slot();
            t.brams[n.index].rdData = slot[i];
            t.brams[n.index].elements =
                uint32_t(c->brams()[n.index].elements);
            break;
          case NodeKind::Concat:
            // Zero-extension is a no-op on masked uint64 payloads:
            // alias the slot, emit nothing.
            if (nodes[n.a].kind == NodeKind::Const && nodes[n.a].value == 0) {
                slot[i] = slot[n.b];
                break;
            }
            slot[i] = new_slot();
            {
                TapeOp op;
                op.op = TapeOpcode::Concat;
                op.dst = slot[i];
                op.a = slot[n.a];
                op.b = slot[n.b];
                op.sa = uint8_t(nodes[n.b].width);
                t.ops.push_back(op);
            }
            break;
          case NodeKind::Slice:
            // A full-width slice (only reachable with the optimizer
            // off) is also an alias.
            if (n.index == 0 && n.width == nodes[n.a].width) {
                slot[i] = slot[n.a];
                break;
            }
            slot[i] = new_slot();
            {
                TapeOp op;
                op.op = TapeOpcode::Slice;
                op.dst = slot[i];
                op.a = slot[n.a];
                op.sa = uint8_t(n.index);
                op.imm = mask64(n.width);
                t.ops.push_back(op);
            }
            break;
          case NodeKind::Un:
            slot[i] = new_slot();
            {
                TapeOp op;
                // LNot of a 1-bit value is ~a & 1 (the masking invariant
                // makes a ∈ {0, 1}); UnNot is cheaper than == 0.
                if (n.unOp == UnOp::LNot && nodes[n.a].width == 1)
                    op.op = TapeOpcode::UnNot;
                else
                    op.op = n.unOp == UnOp::Not    ? TapeOpcode::UnNot
                            : n.unOp == UnOp::LNot ? TapeOpcode::UnLNot
                                                   : TapeOpcode::UnNeg;
                op.dst = slot[i];
                op.a = slot[n.a];
                op.imm = mask64(n.width);
                t.ops.push_back(op);
            }
            break;
          case NodeKind::Mux:
            slot[i] = new_slot();
            {
                TapeOp op;
                op.op = TapeOpcode::Mux;
                op.dst = slot[i];
                op.a = slot[n.a];
                op.b = slot[n.b];
                op.c = slot[n.c];
                t.ops.push_back(op);
            }
            break;
          case NodeKind::Bin:
            slot[i] = new_slot();
            t.ops.push_back(lowerBin(*c, n, slot[i], slot[n.a], slot[n.b]));
            break;
        }
    }

    specializeUniformOperands(t);

    {
        const std::vector<int> demand = demandedWidths(*c);
        t.fits32 = std::all_of(demand.begin(), demand.end(),
                               [](int w) { return w <= 32; });
    }

    for (size_t i = 0; i < c->regs().size(); ++i) {
        const RegInfo &r = c->regs()[i];
        t.regs[i].next = slot[r.next];
        t.regs[i].enable = r.enable == kNoNode ? -1 : slot[r.enable];
    }
    for (size_t i = 0; i < c->brams().size(); ++i) {
        const BramInfo &b = c->brams()[i];
        t.brams[i].rdAddr = slot[b.rdAddr];
        t.brams[i].wrEn = slot[b.wrEn];
        t.brams[i].wrAddr = slot[b.wrAddr];
        t.brams[i].wrData = slot[b.wrData];
    }

    t.nodeSlot.resize(circuit.nodes().size());
    for (size_t i = 0; i < t.nodeSlot.size(); ++i) {
        NodeId m = source_map[i];
        t.nodeSlot[i] = m == kNoNode ? -1 : slot[m];
    }
    t.outputSlots.reserve(c->outputs().size());
    for (const auto &o : c->outputs())
        t.outputSlots.push_back(o.node == kNoNode ? -1 : slot[o.node]);
    t.sourceNodes = circuit.nodes().size();
    uint64_t remaining = t.ops.size() + t.constSlots.size() +
                         c->inputs().size() + c->regs().size() +
                         c->brams().size();
    t.nodesEliminated = remaining < t.sourceNodes ? t.sourceNodes - remaining
                                                  : 0;
    if (opt_result) {
        t.optSourceNodes = opt_result->stats.sourceNodes;
        t.optResultNodes = opt_result->stats.resultNodes;
        t.optDeadNodes = opt_result->stats.deadNodes;
    } else {
        t.optSourceNodes = circuit.nodes().size();
        t.optResultNodes = circuit.nodes().size();
        t.optDeadNodes = 0;
    }
    return t;
}

uint64_t
TapeProgram::contentHash() const
{
    // FNV-1a over every field that affects evaluation, mixed field by
    // field (never via memcpy of the structs: padding bytes are
    // indeterminate and would poison the hash).
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixSlot = [&](int32_t s) { mix(uint64_t(uint32_t(s))); };
    mix(uint64_t(numSlots));
    mix(uint64_t(fits32));
    mix(ops.size());
    for (const TapeOp &op : ops) {
        mix(uint64_t(op.op) | uint64_t(op.sa) << 8 | uint64_t(op.sb) << 16);
        mix(uint64_t(uint32_t(op.dst)) | uint64_t(uint32_t(op.a)) << 32);
        mix(uint64_t(uint32_t(op.b)) | uint64_t(uint32_t(op.c)) << 32);
        mix(op.imm);
    }
    mix(constSlots.size());
    for (const auto &[s, v] : constSlots) {
        mixSlot(s);
        mix(v);
    }
    mix(inputSlot.size());
    for (int32_t s : inputSlot)
        mixSlot(s);
    mix(outputSlots.size());
    for (int32_t s : outputSlots)
        mixSlot(s);
    for (int w : inputWidth)
        mix(uint64_t(w));
    mix(regs.size());
    for (const RegSpec &r : regs) {
        mixSlot(r.next);
        mixSlot(r.enable);
        mixSlot(r.out);
        mix(r.init);
    }
    mix(brams.size());
    for (const BramSpec &b : brams) {
        mixSlot(b.rdAddr);
        mixSlot(b.wrEn);
        mixSlot(b.wrAddr);
        mixSlot(b.wrData);
        mixSlot(b.rdData);
        mix(uint64_t(b.elements));
    }
    return h;
}

int32_t
TapeProgram::slotOf(NodeId source_node) const
{
    int32_t s = nodeSlot.at(source_node);
    if (s < 0)
        panic("rtl: tape: node ", source_node,
              " was eliminated and has no slot");
    return s;
}

} // namespace rtl
} // namespace fleet
