#include "lang/interp.h"

#include "lang/analysis/driver.h"
#include "lang/parser.h"
#include "lang/typecheck.h"

namespace dbpl::lang {

Interp::Interp(const std::string& persist_dir) {
  if (!persist_dir.empty()) {
    Result<std::unique_ptr<persist::ReplicatingStore>> store =
        persist::ReplicatingStore::Open(storage::Vfs::Default(), persist_dir);
    if (store.ok()) store_ = std::move(store).value();
  }
  checker_ = std::make_unique<TypeChecker>();
  evaluator_ = std::make_unique<Evaluator>(store_.get());
}

Interp::~Interp() = default;

Result<Interp::Output> Interp::Run(std::string_view source) {
  aliases_.clear();
  checker_ = std::make_unique<TypeChecker>();
  evaluator_ = std::make_unique<Evaluator>(store_.get());
  return RunIncremental(source);
}

Result<Interp::Output> Interp::RunIncremental(std::string_view source) {
  DBPL_ASSIGN_OR_RETURN(Program program, Parse(source, &aliases_));
  DBPL_ASSIGN_OR_RETURN(std::vector<DeclType> decl_types,
                        checker_->CheckProgram(program));
  Output output;
  AnalysisDriver linter;
  AnalysisContext ctx{program, decl_types, source};
  for (const Diagnostic& diag : linter.RunPasses(ctx)) {
    output.warnings.push_back(RenderText(diag, source));
  }
  for (size_t i = 0; i < program.decls.size(); ++i) {
    const Decl& decl = program.decls[i];
    DBPL_ASSIGN_OR_RETURN(RtValue v, evaluator_->EvalDecl(decl));
    // Expression statements are the program's outputs — except the
    // imperative commands insert/extern, which are actions.
    if (decl.kind == Decl::Kind::kExpr &&
        decl.expr->kind != ExprKind::kInsert &&
        decl.expr->kind != ExprKind::kExtern) {
      output.values.push_back(v.ToString());
      output.types.push_back(decl_types[i].type.ToString());
    }
  }
  return output;
}

Result<RtValue> Interp::Global(const std::string& name) const {
  return evaluator_->Global(name);
}

}  // namespace dbpl::lang
