#include "lang/flatten.h"

#include "util/logging.h"

namespace fleet {
namespace lang {

Expr
andCond(const Expr &a, const Expr &b)
{
    if (!a)
        return b;
    if (!b)
        return a;
    return binExpr(BinOp::LAnd, a, b);
}

namespace {

/** Non-zero test, normalizing any width to a 1-bit condition. */
Expr
ne0(const Expr &e)
{
    if (e->width == 1)
        return e;
    return binExpr(BinOp::Ne, e, constExpr(0, e->width));
}

class Flattener
{
  public:
    explicit Flattener(FlatProgram &out) : out_(out) {}

    void
    flattenBlock(const Block &block, const Expr &cond, bool inside_while)
    {
        for (const auto &stmt : block)
            flattenStmt(*stmt, cond, inside_while);
    }

  private:
    void
    flattenStmt(const Stmt &stmt, const Expr &cond, bool inside_while)
    {
        if (const auto *assign = std::get_if<AssignStmt>(&stmt.node)) {
            out_.assigns.push_back(
                FlatAssign{cond, inside_while, assign->target,
                           assign->value});
            collectBramReads(assign->value, cond, inside_while,
                             out_.bramReads);
            if (assign->target.index) {
                collectBramReads(assign->target.index, cond, inside_while,
                                 out_.bramReads);
            }
        } else if (const auto *emit = std::get_if<EmitStmt>(&stmt.node)) {
            out_.emits.push_back(FlatEmit{cond, inside_while, emit->value});
            collectBramReads(emit->value, cond, inside_while,
                             out_.bramReads);
        } else if (const auto *if_stmt = std::get_if<IfStmt>(&stmt.node)) {
            // Arms are mutually exclusive in priority order: each arm's
            // condition is conjoined with the negation of all earlier arms.
            Expr not_earlier;
            for (const auto &[arm_cond, arm_block] : if_stmt->arms) {
                collectBramReads(arm_cond, andCond(cond, not_earlier),
                                 inside_while, out_.bramReads);
                Expr taken = andCond(not_earlier, ne0(arm_cond));
                flattenBlock(arm_block, andCond(cond, taken), inside_while);
                not_earlier = andCond(
                    not_earlier, unExpr(UnOp::LNot, ne0(arm_cond)));
            }
            if (!if_stmt->elseBlock.empty()) {
                flattenBlock(if_stmt->elseBlock, andCond(cond, not_earlier),
                             inside_while);
            }
        } else if (const auto *wh = std::get_if<WhileStmt>(&stmt.node)) {
            if (inside_while)
                panic("flatten: nested while survived builder checks");
            collectBramReads(wh->cond, cond, inside_while, out_.bramReads);
            Expr eff = andCond(cond, ne0(wh->cond));
            out_.whileConds.push_back(eff);
            flattenBlock(wh->body, eff, true);
        } else {
            panic("flatten: unknown statement kind");
        }
    }

    FlatProgram &out_;
};

} // namespace

void
collectBramReads(const Expr &e, const Expr &cond, bool inside_while,
                 std::vector<BramReadOcc> &out)
{
    if (!e)
        return;
    // Expressions are DAGs with heavy sharing; pruning read-free
    // subtrees keeps this walk linear in practice.
    if (!containsBramRead(e))
        return;
    switch (e->kind) {
      case ExprKind::BramRead:
        out.push_back(BramReadOcc{e->stateId, e->a, cond, inside_while});
        collectBramReads(e->a, cond, inside_while, out);
        return;
      case ExprKind::Mux:
        collectBramReads(e->c, cond, inside_while, out);
        collectBramReads(e->a, andCond(cond, ne0(e->c)), inside_while, out);
        collectBramReads(e->b,
                         andCond(cond, unExpr(UnOp::LNot, ne0(e->c))),
                         inside_while, out);
        return;
      default:
        collectBramReads(e->a, cond, inside_while, out);
        collectBramReads(e->b, cond, inside_while, out);
        collectBramReads(e->c, cond, inside_while, out);
        return;
    }
}

FlatProgram
flatten(const Program &program)
{
    FlatProgram out;
    Flattener flattener(out);
    flattener.flattenBlock(program.body, nullptr, false);
    return out;
}

} // namespace lang
} // namespace fleet
