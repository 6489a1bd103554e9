//===- interp/Interpreter.h - Tree-walking interpreter ---------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MATLAB-compatible tree-walking interpreter: MaJIC's interactive front
/// end, which "can execute MATLAB code at approximately MATLAB's original
/// speed" (Section 2). Every operation is dynamically dispatched over boxed
/// Values with full runtime checking — the overhead that compilation
/// removes, and the t_i baseline of every speedup in Section 3.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_INTERP_INTERPRETER_H
#define MAJIC_INTERP_INTERPRETER_H

#include "ast/AST.h"
#include "runtime/CallResolver.h"
#include "runtime/Context.h"

#include <vector>

namespace majic {

class Interpreter {
public:
  /// The interpreter reproduces the MATLAB-6 interpreter's dynamic symbol
  /// table (Section 2.1: a symbol is a variable "if it has an entry in the
  /// dynamic symbol table of the interpreter"): every variable access pays
  /// a name-hash lookup, as the original front end did.
  Interpreter(Context &Ctx, CallResolver &Resolver)
      : Ctx(Ctx), Resolver(Resolver) {}

  /// Executes the disambiguated function \p F with \p Args, returning
  /// \p NumOuts outputs. Throws MatlabError on runtime errors (bad
  /// subscripts, undefined variables, shape mismatches, ...).
  std::vector<ValuePtr> run(const Function &F, std::vector<ValuePtr> Args,
                            size_t NumOuts);

  /// Executes \p F as a script over an externally owned workspace of
  /// \p F.numSlots() slots (the interactive session's variables).
  void runScript(const Function &F, std::vector<ValuePtr> &Workspace);

private:
  friend class InterpFrame;
  Context &Ctx;
  CallResolver &Resolver;
};

} // namespace majic

#endif // MAJIC_INTERP_INTERPRETER_H
