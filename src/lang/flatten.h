#ifndef FLEET_LANG_FLATTEN_H
#define FLEET_LANG_FLATTEN_H

/**
 * @file
 * Lowering of structured Fleet programs into flat (condition, action)
 * pairs, mirroring the compilation procedure of Section 4 of the paper:
 * nested `if` conditions become conjunctions, a `while` condition is
 * treated as an `if` condition for the statements in its body, and
 * statements outside all loops are gated by `while_done`.
 *
 * Conditions stored here do NOT yet include the `while_done` factor;
 * instead each action carries an `insideWhile` flag. Consumers (the
 * compiler and the static checks) combine `cond` with the program-wide
 * `while_done` signal exactly as the generated RTL does (Figure 4,
 * lines 17-18 and 33). The functional simulator walks the statement
 * tree instead (sim/plan.h), numbering actions in this file's order.
 */

#include <vector>

#include "lang/ast.h"

namespace fleet {
namespace lang {

/** A flattened assignment with its full `if`-path condition. */
struct FlatAssign
{
    Expr cond; ///< Null means unconditional (within its while class).
    bool insideWhile;
    LValue target;
    Expr value;
};

/** A flattened emit with its full `if`-path condition. */
struct FlatEmit
{
    Expr cond;
    bool insideWhile;
    Expr value;
};

/**
 * One syntactic BRAM read with the condition chain that gates it (its
 * `if` path plus any mux-select path inside expressions). Used for the
 * dependent-read static check and for building the single read-address
 * mux in the compiler.
 */
struct BramReadOcc
{
    int bramId;
    Expr addr;
    Expr cond; ///< Null means unconditional (within its while class).
    bool insideWhile;
};

struct FlatProgram
{
    /** Effective while conditions (conjoined with their `if` paths). */
    std::vector<Expr> whileConds;

    std::vector<FlatAssign> assigns;
    std::vector<FlatEmit> emits;
    std::vector<BramReadOcc> bramReads;
};

/** Conjoin two conditions where null means "true". */
Expr andCond(const Expr &a, const Expr &b);

/**
 * Append the BRAM reads in `e` to `out` in flatten() order, each gated
 * by `cond` conjoined with the mux selects on its path (a read in a mux
 * leg happens only when that leg is selected).
 */
void collectBramReads(const Expr &e, const Expr &cond, bool insideWhile,
                      std::vector<BramReadOcc> &out);

/** Flatten a program (does not check restrictions; see lang/check.h). */
FlatProgram flatten(const Program &program);

} // namespace lang
} // namespace fleet

#endif // FLEET_LANG_FLATTEN_H
