#ifndef FLEET_LANG_AST_H
#define FLEET_LANG_AST_H

/**
 * @file
 * Abstract syntax tree of the Fleet processing-unit language (Section 3 of
 * the paper). A Fleet program describes the "virtual cycle" executed for
 * every input token of a stream: concurrent assignments to state elements
 * (registers, vector registers, BRAMs), token emits, `if`/`else if`/`else`
 * gating, and `while` loops that take extra virtual cycles before the input
 * token advances.
 *
 * The AST is immutable once built (expressions are shared const nodes), so
 * the functional simulator, the compiler, and the baseline models can all
 * analyze the same program object.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/ops.h"

namespace fleet {
namespace lang {

// ---------------------------------------------------------------------------
// State element declarations
// ---------------------------------------------------------------------------

/** A register with an explicit bit width and reset value. */
struct RegDecl
{
    int id;
    std::string name;
    int width;
    uint64_t init;
};

/** A random-access vector of registers. */
struct VecRegDecl
{
    int id;
    std::string name;
    int elements;
    int width;
    uint64_t init;
    int indexWidth; ///< Width of index expressions (bits to address elements).
};

/**
 * A BRAM: single read port and single write port per virtual cycle, one
 * cycle of read latency in hardware (pipelined away by the compiler).
 * Zero-initialized, as on most FPGAs (paper, Section 3).
 */
struct BramDecl
{
    int id;
    std::string name;
    int elements;
    int width;
    int addrWidth;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

enum class ExprKind : uint8_t
{
    Const,          ///< Literal value.
    Input,          ///< Current input token.
    StreamFinished, ///< True during the post-stream cleanup virtual cycle.
    RegRead,        ///< Current value of a register.
    VecRegRead,     ///< Random-access read of a vector register element.
    BramRead,       ///< BRAM read (restricted; see lang/check.h).
    Bin,            ///< Binary operator.
    Un,             ///< Unary operator.
    Mux,            ///< cond ? a : b (cond is a non-zero test).
    Slice,          ///< Bits [lo, lo+width) of the operand.
    Concat,         ///< {hi, lo} concatenation; lo occupies the low bits.
};

struct ExprNode
{
    ExprKind kind;
    int width;

    /** Memo for containsBramRead() (-1 unknown, else 0/1); expressions
     * are immutable DAGs, so the answer never changes. */
    mutable int8_t hasBramReadMemo = -1;

    // Const
    uint64_t value = 0;

    // RegRead / VecRegRead / BramRead: declaration id.
    int stateId = -1;

    // Operators.
    BinOp binOp = BinOp::Add;
    UnOp unOp = UnOp::Not;

    // Children: operands / index / address / mux legs.
    Expr a, b, c;

    // Slice.
    int sliceLo = 0;
};

/// @name Expression constructors. All return shared immutable nodes.
/// @{
Expr constExpr(uint64_t value, int width);
Expr inputExpr(int token_width);
Expr streamFinishedExpr();
Expr regReadExpr(const RegDecl &reg);
Expr vecRegReadExpr(const VecRegDecl &vreg, Expr index);
Expr bramReadExpr(const BramDecl &bram, Expr addr);
Expr binExpr(BinOp op, Expr a, Expr b);
Expr unExpr(UnOp op, Expr a);
Expr muxExpr(Expr cond, Expr a, Expr b);
Expr sliceExpr(Expr a, int hi, int lo);
Expr concatExpr(Expr hi, Expr lo);
/// @}

/** Structural equality of expression DAGs (used to merge BRAM reads). */
bool exprEqual(const Expr &a, const Expr &b);

/** True if any BramRead node appears in the expression. */
bool containsBramRead(const Expr &e);

/** Render an expression as a compact string (debugging, Verilog names). */
std::string exprToString(const Expr &e);

/** Total number of operator/leaf nodes (used by the area and SIMT models). */
int exprNodeCount(const Expr &e);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/** Assignment target: a register, vector-register element, or BRAM word. */
struct LValue
{
    enum class Kind { Reg, VecElem, BramElem };
    Kind kind;
    int stateId;
    Expr index; ///< Element index / BRAM address (null for Reg).
};

struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

struct AssignStmt
{
    LValue target;
    Expr value;
};

struct EmitStmt
{
    Expr value;
};

struct IfStmt
{
    /** (condition, block) arms in priority order; empty cond == else. */
    std::vector<std::pair<Expr, Block>> arms;
    Block elseBlock;
};

struct WhileStmt
{
    Expr cond;
    Block body;
};

struct Stmt
{
    std::variant<AssignStmt, EmitStmt, IfStmt, WhileStmt> node;
};

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/** A complete Fleet processing-unit program. */
struct Program
{
    std::string name;
    int inputTokenWidth = 8;
    int outputTokenWidth = 8;

    /**
     * Declared worst-case output bytes per input byte, used by the host
     * runtime to auto-size each unit's DRAM output region (the paper's
     * runtime makes the user pick output buffer sizes; declaring the
     * expansion on the program keeps that knowledge with the code that
     * determines it). The runtime never sizes below 2.0. A unit that
     * out-emits its declaration is contained with an OutputOverflow
     * outcome rather than aborting the system.
     */
    double maxOutputExpansion = 2.0;

    std::vector<RegDecl> regs;
    std::vector<VecRegDecl> vregs;
    std::vector<BramDecl> brams;

    Block body;

    const RegDecl &reg(int id) const { return regs.at(id); }
    const VecRegDecl &vreg(int id) const { return vregs.at(id); }
    const BramDecl &bram(int id) const { return brams.at(id); }
};

} // namespace lang
} // namespace fleet

#endif // FLEET_LANG_AST_H
