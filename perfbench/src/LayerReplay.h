//===- perfbench/src/LayerReplay.h - Layer-by-layer replay ------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's attribution path. It repeats what Engine does for a
/// call, but calls each layer's entry point itself, with a span around
/// it: parseModule, disambiguate, inlineFunctionCalls, inferTypes,
/// speculateSignature, generateCode, optimize, allocateRegisters,
/// Interpreter::runScript, VM::run, emitCSource, NativeCompiler::compile
/// and load, and runNative. Results go through the same oracle as the
/// engine's, so a replay that diverged from the engine would show.
///
/// Execution spans (interp.exec, backend.vm_exec, native.exec) are opened
/// for top-level invocations only; nested calls of recursive programs run
/// inside them. Compile spans are opened wherever a compile happens.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_PERFBENCH_LAYERREPLAY_H
#define MAJIC_PERFBENCH_LAYERREPLAY_H

#include "Bench.h"

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/CodeGen.h"
#include "backend/Platform.h"
#include "backend/VM.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "native/NativeRuntime.h"
#include "repo/Repository.h"

#include <unordered_map>

namespace perfbench {

/// Counters the layer calls report (work done, not time).
struct LayerCounts {
  uint64_t Compiles = 0;
  uint64_t IrInstrs = 0;    ///< instructions after register allocation
  uint64_t Spills = 0;      ///< spill instructions inserted
  uint64_t CheckedAccesses = 0;   ///< *Chk element loads/stores emitted
  uint64_t UncheckedAccesses = 0; ///< element loads/stores without checks
  uint64_t NativeFailures = 0; ///< versions whose C did not build or load
};

class LayerReplay : public majic::CallResolver, public majic::native::NativeHost {
public:
  explicit LayerReplay(Tracer *T);

  /// Parses and analyzes one source file (function definitions).
  bool load(const std::string &Name, const std::string &Source);

  /// Runs \p Source as a script in the replay's workspace and returns what
  /// it printed; function definitions are registered instead.
  std::string runScript(const std::string &Source);
  ValuePtr var(const std::string &Name) const;

  /// A top-level call of \p Name, served natively when \p Native and a
  /// module was built for the version, on the VM otherwise.
  std::vector<ValuePtr> call(const std::string &Name,
                             std::vector<ValuePtr> Args, size_t NumOuts,
                             bool Native);

  /// The signature the speculator guesses for \p Name.
  majic::TypeSignature speculate(const std::string &Name);
  /// Compiles \p Name for \p Sig in \p Mode into the replay's repository.
  majic::CompiledObjectPtr compile(const std::string &Name,
                                   const majic::TypeSignature &Sig,
                                   majic::CodeGenMode Mode,
                                   bool Optimistic = true);

  /// Builds native modules for every compiled version of \p Name.
  void buildNative(const std::string &Name,
                   const majic::native::NativeCompiler &CC);

  majic::Context &context() { return Ctx; }
  const LayerCounts &counts() const { return Counts; }

  // CallResolver / NativeHost.
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr> Args,
                                     size_t NumOuts,
                                     majic::SourceLoc Loc) override;
  bool knowsFunction(const std::string &Name) override;
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr> Args,
                                     size_t NumOuts) override;

private:
  struct Fn {
    majic::Function *F = nullptr;
    majic::Module *M = nullptr;
    std::unique_ptr<majic::FunctionInfo> Info;
    std::unique_ptr<majic::Function> InlinedF;
    std::unique_ptr<majic::FunctionInfo> InlinedInfo;
  };

  /// The inlined, re-disambiguated view compiles use (built once).
  const majic::FunctionInfo *view(Fn &F);
  void registerFunctions(majic::Module &M);

  Tracer *T;
  majic::SourceManager SM;
  majic::Diagnostics Diags;
  majic::Context Ctx;
  majic::VM Machine;
  majic::Interpreter Interp;
  majic::PlatformModel Platform = majic::PlatformModel::sparc();
  majic::Repository Repo;
  std::vector<std::unique_ptr<majic::Module>> Modules;
  std::unordered_map<std::string, Fn> Fns;
  std::unordered_map<std::string, ValuePtr> Workspace;
  /// Compiled versions per function, in compile order.
  std::unordered_map<std::string, std::vector<majic::CompiledObjectPtr>>
      Versions;
  /// Native modules by the IR they were built from.
  std::unordered_map<const majic::IRFunction *,
                     std::shared_ptr<majic::native::NativeModule>>
      NativeByCode;
  LayerCounts Counts;
  unsigned Depth = 0;
  bool UseNative = false;
};

} // namespace perfbench

#endif // MAJIC_PERFBENCH_LAYERREPLAY_H
