#include "lang/ast.h"

#include <atomic>
#include <sstream>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace lang {

namespace {

Expr
makeNode(ExprNode node)
{
    if (node.width < 1 || node.width > kMaxValueWidth)
        fatal("expression width ", node.width, " out of range [1, ",
              kMaxValueWidth, "]");
    return std::make_shared<const ExprNode>(std::move(node));
}

} // namespace

Expr
constExpr(uint64_t value, int width)
{
    ExprNode n;
    n.kind = ExprKind::Const;
    n.width = width;
    n.value = truncTo(value, width);
    if (n.value != value)
        fatal("literal ", value, " does not fit in ", width, " bits");
    return makeNode(std::move(n));
}

Expr
inputExpr(int token_width)
{
    ExprNode n;
    n.kind = ExprKind::Input;
    n.width = token_width;
    return makeNode(std::move(n));
}

Expr
streamFinishedExpr()
{
    ExprNode n;
    n.kind = ExprKind::StreamFinished;
    n.width = 1;
    return makeNode(std::move(n));
}

Expr
regReadExpr(const RegDecl &reg)
{
    ExprNode n;
    n.kind = ExprKind::RegRead;
    n.width = reg.width;
    n.stateId = reg.id;
    return makeNode(std::move(n));
}

Expr
vecRegReadExpr(const VecRegDecl &vreg, Expr index)
{
    ExprNode n;
    n.kind = ExprKind::VecRegRead;
    n.width = vreg.width;
    n.stateId = vreg.id;
    n.a = std::move(index);
    return makeNode(std::move(n));
}

Expr
bramReadExpr(const BramDecl &bram, Expr addr)
{
    ExprNode n;
    n.kind = ExprKind::BramRead;
    n.width = bram.width;
    n.stateId = bram.id;
    n.a = std::move(addr);
    return makeNode(std::move(n));
}

Expr
binExpr(BinOp op, Expr a, Expr b)
{
    ExprNode n;
    n.kind = ExprKind::Bin;
    n.width = binOpWidth(op, a->width, b->width);
    n.binOp = op;
    n.a = std::move(a);
    n.b = std::move(b);
    return makeNode(std::move(n));
}

Expr
unExpr(UnOp op, Expr a)
{
    ExprNode n;
    n.kind = ExprKind::Un;
    n.width = unOpWidth(op, a->width);
    n.unOp = op;
    n.a = std::move(a);
    return makeNode(std::move(n));
}

Expr
muxExpr(Expr cond, Expr a, Expr b)
{
    if (a->width != b->width) {
        // Zero-extend the narrower leg so both legs agree (documented rule).
        int w = std::max(a->width, b->width);
        if (a->width < w)
            a = concatExpr(constExpr(0, w - a->width), a);
        if (b->width < w)
            b = concatExpr(constExpr(0, w - b->width), b);
    }
    ExprNode n;
    n.kind = ExprKind::Mux;
    n.width = a->width;
    n.a = std::move(a);
    n.b = std::move(b);
    n.c = std::move(cond);
    return makeNode(std::move(n));
}

Expr
sliceExpr(Expr a, int hi, int lo)
{
    if (lo < 0 || hi < lo || hi >= a->width)
        fatal("slice [", hi, ":", lo, "] out of range for width ", a->width);
    ExprNode n;
    n.kind = ExprKind::Slice;
    n.width = hi - lo + 1;
    n.sliceLo = lo;
    n.a = std::move(a);
    return makeNode(std::move(n));
}

Expr
concatExpr(Expr hi, Expr lo)
{
    if (hi->width + lo->width > kMaxValueWidth)
        fatal("concat width ", hi->width + lo->width, " exceeds ",
              kMaxValueWidth);
    ExprNode n;
    n.kind = ExprKind::Concat;
    n.width = hi->width + lo->width;
    n.a = std::move(hi);
    n.b = std::move(lo);
    return makeNode(std::move(n));
}

bool
exprEqual(const Expr &a, const Expr &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    if (a->kind != b->kind || a->width != b->width)
        return false;
    switch (a->kind) {
      case ExprKind::Const:
        return a->value == b->value;
      case ExprKind::Input:
      case ExprKind::StreamFinished:
        return true;
      case ExprKind::RegRead:
        return a->stateId == b->stateId;
      case ExprKind::VecRegRead:
      case ExprKind::BramRead:
        return a->stateId == b->stateId && exprEqual(a->a, b->a);
      case ExprKind::Bin:
        return a->binOp == b->binOp && exprEqual(a->a, b->a) &&
               exprEqual(a->b, b->b);
      case ExprKind::Un:
        return a->unOp == b->unOp && exprEqual(a->a, b->a);
      case ExprKind::Mux:
        return exprEqual(a->c, b->c) && exprEqual(a->a, b->a) &&
               exprEqual(a->b, b->b);
      case ExprKind::Slice:
        return a->sliceLo == b->sliceLo && exprEqual(a->a, b->a);
      case ExprKind::Concat:
        return exprEqual(a->a, b->a) && exprEqual(a->b, b->b);
    }
    return false;
}

bool
containsBramRead(const Expr &e)
{
    if (!e)
        return false;
    // Programs share AST nodes, and independent flattenings and
    // compilations of them may run on concurrent threads. The answer is
    // deterministic, so racing writers store the same value; atomics
    // make that well-defined.
    std::atomic_ref<int8_t> memo(e->hasBramReadMemo);
    int8_t m = memo.load(std::memory_order_acquire);
    if (m >= 0)
        return m != 0;
    bool result;
    if (e->kind == ExprKind::BramRead) {
        result = true;
    } else {
        result = containsBramRead(e->a) || containsBramRead(e->b) ||
                 containsBramRead(e->c);
    }
    memo.store(result ? 1 : 0, std::memory_order_release);
    return result;
}

int
exprNodeCount(const Expr &e)
{
    if (!e)
        return 0;
    return 1 + exprNodeCount(e->a) + exprNodeCount(e->b) +
           exprNodeCount(e->c);
}

std::string
exprToString(const Expr &e)
{
    if (!e)
        return "<null>";
    std::ostringstream os;
    switch (e->kind) {
      case ExprKind::Const:
        os << e->value << "'" << e->width;
        break;
      case ExprKind::Input:
        os << "input";
        break;
      case ExprKind::StreamFinished:
        os << "stream_finished";
        break;
      case ExprKind::RegRead:
        os << "r" << e->stateId;
        break;
      case ExprKind::VecRegRead:
        os << "v" << e->stateId << "[" << exprToString(e->a) << "]";
        break;
      case ExprKind::BramRead:
        os << "m" << e->stateId << "[" << exprToString(e->a) << "]";
        break;
      case ExprKind::Bin:
        os << "(" << exprToString(e->a) << " " << binOpName(e->binOp) << " "
           << exprToString(e->b) << ")";
        break;
      case ExprKind::Un:
        os << unOpName(e->unOp) << exprToString(e->a);
        break;
      case ExprKind::Mux:
        os << "(" << exprToString(e->c) << " ? " << exprToString(e->a)
           << " : " << exprToString(e->b) << ")";
        break;
      case ExprKind::Slice:
        os << exprToString(e->a) << "[" << (e->sliceLo + e->width - 1) << ":"
           << e->sliceLo << "]";
        break;
      case ExprKind::Concat:
        os << "{" << exprToString(e->a) << ", " << exprToString(e->b) << "}";
        break;
    }
    return os.str();
}

} // namespace lang
} // namespace fleet
