//===- native/NativeCompiler.cpp - Out-of-process C compilation ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "native/NativeCompiler.h"

#include "native/NativeRuntime.h"
#include "obs/Trace.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace majic;
using namespace majic::native;

NativeModule::~NativeModule() {
  if (Handle)
    dlclose(Handle);
  if (MemFd >= 0)
    close(MemFd);
}

std::string majic::native::entrySymbol(const std::string &FnName) {
  return cIdentifier(FnName) + "_compiled";
}

namespace {

int64_t monotonicMs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<int64_t>(Ts.tv_sec) * 1000 + Ts.tv_nsec / 1000000;
}

struct RunResult {
  int ExitCode = -1;
  bool TimedOut = false;
  std::string Output; // stdout + stderr, interleaved
};

/// Runs \p Argv directly (no shell), captures combined stdout/stderr, and
/// SIGKILLs the child when the deadline passes. Never throws: a spawn
/// failure reports as exit 127 with a message in Output.
RunResult runCommand(const std::vector<std::string> &Argv, int64_t TimeoutMs) {
  RunResult R;
  int Fds[2];
  if (pipe(Fds) != 0) {
    R.ExitCode = 127;
    R.Output = format("pipe: %s", std::strerror(errno));
    return R;
  }

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    R.ExitCode = 127;
    R.Output = format("fork: %s", std::strerror(errno));
    return R;
  }
  if (Pid == 0) {
    // Child: pipe carries both streams; exec failure exits 127 like sh.
    dup2(Fds[1], STDOUT_FILENO);
    dup2(Fds[1], STDERR_FILENO);
    close(Fds[0]);
    close(Fds[1]);
    execvp(Args[0], Args.data());
    _exit(127);
  }

  close(Fds[1]);
  int64_t Deadline = monotonicMs() + TimeoutMs;
  bool Eof = false;
  while (!Eof) {
    int64_t Left = Deadline - monotonicMs();
    if (Left <= 0) {
      kill(Pid, SIGKILL);
      R.TimedOut = true;
      break;
    }
    pollfd Pfd = {Fds[0], POLLIN, 0};
    int Pr = poll(&Pfd, 1, static_cast<int>(Left > 200 ? 200 : Left));
    if (Pr > 0) {
      char Buf[4096];
      ssize_t N = read(Fds[0], Buf, sizeof Buf);
      if (N > 0)
        R.Output.append(Buf, static_cast<size_t>(N));
      else
        Eof = true; // writer closed (child exited or closed its streams)
    }
  }
  close(Fds[0]);

  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  if (R.TimedOut)
    R.ExitCode = -1;
  else if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  else
    R.ExitCode = 128 + (WIFSIGNALED(Status) ? WTERMSIG(Status) : 0);
  return R;
}

/// mkdtemp-backed scratch directory under the system temp directory
/// (TMPDIR when set), removed (with known contents) on scope exit.
struct TempDir {
  std::string Path;
  std::vector<std::string> Files;

  TempDir() {
    std::error_code EC;
    std::filesystem::path Base = std::filesystem::temp_directory_path(EC);
    if (EC)
      throw MatlabError(format("native compile: no temp directory: %s",
                               EC.message().c_str()));
    std::string Tmpl = (Base / "majic-native-XXXXXX").string();
    if (!mkdtemp(Tmpl.data()))
      throw MatlabError(
          format("native compile: mkdtemp: %s", std::strerror(errno)));
    Path = Tmpl;
  }
  ~TempDir() {
    for (const std::string &F : Files)
      unlink(F.c_str());
    rmdir(Path.c_str());
  }

  std::string write(const std::string &Name, const std::string &Contents) {
    std::string Full = Path + "/" + Name;
    Files.push_back(Full);
    FILE *Fp = fopen(Full.c_str(), "wb");
    if (!Fp)
      throw MatlabError(
          format("native compile: cannot write %s", Full.c_str()));
    size_t N = fwrite(Contents.data(), 1, Contents.size(), Fp);
    if (fclose(Fp) != 0 || N != Contents.size())
      throw MatlabError(
          format("native compile: short write to %s", Full.c_str()));
    return Full;
  }
};

std::string readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  FILE *Fp = fopen(Path.c_str(), "rb");
  if (!Fp)
    return format("cannot open %s", Path.c_str());
  fseek(Fp, 0, SEEK_END);
  long Size = ftell(Fp);
  fseek(Fp, 0, SEEK_SET);
  if (Size < 0) {
    fclose(Fp);
    return format("cannot size %s", Path.c_str());
  }
  Out.resize(static_cast<size_t>(Size));
  size_t N = Out.empty() ? 0 : fread(Out.data(), 1, Out.size(), Fp);
  fclose(Fp);
  if (N != Out.size())
    return format("short read from %s", Path.c_str());
  return std::string();
}

std::string firstLine(const std::string &S) {
  size_t Pos = S.find('\n');
  return Pos == std::string::npos ? S : S.substr(0, Pos);
}

/// Trims compiler stderr to something a MatlabError can carry.
std::string excerpt(const std::string &S) {
  const size_t Max = 500;
  if (S.size() <= Max)
    return S;
  return S.substr(0, Max) + "...";
}

} // namespace

NativeCompiler::NativeCompiler(std::string CompilerPath, int64_t TimeoutMs)
    : Path(std::move(CompilerPath)), TimeoutMs(TimeoutMs) {
  if (Path.empty())
    return;
  RunResult R = runCommand({Path, "--version"}, 5000);
  if (R.ExitCode == 0 && !R.Output.empty())
    Id = firstLine(R.Output);
}

std::vector<uint8_t>
NativeCompiler::compile(const std::string &CSource,
                        const std::string &FnName) const {
  faults::killPoint(faults::Site::NativeCompile);
  faults::maybeThrow(faults::Site::NativeCompile);
  obs::TraceScope Span("native.compile", "native", FnName.c_str());

  if (!available())
    throw MatlabError(
        format("native compile: compiler '%s' unavailable", Path.c_str()));

  TempDir Dir;
  Dir.write("majic_mlf.h", preludeSource());
  std::string CFile = Dir.write(cIdentifier(FnName) + ".c", CSource);
  std::string SoFile = Dir.Path + "/" + cIdentifier(FnName) + ".so";
  Dir.Files.push_back(SoFile); // clean up even on a partial compile

  // -ffp-contract=off: generated arithmetic must round exactly like the
  // host tiers (no fused multiply-add). -fno-math-errno frees the
  // compiler to inline sqrt and friends; their IEEE results are
  // unchanged. No -ffast-math: reassociation would break bit-identity.
  RunResult R = runCommand({Path, "-std=c11", "-Wall", "-Werror", "-O2",
                            "-fPIC", "-shared", "-fno-math-errno",
                            "-ffp-contract=off", "-o", SoFile, CFile},
                           TimeoutMs);
  if (R.TimedOut)
    throw MatlabError(format("native compile of '%s' timed out after %lldms",
                             FnName.c_str(),
                             static_cast<long long>(TimeoutMs)));
  if (R.ExitCode != 0)
    throw MatlabError(format("native compile of '%s' failed (exit %d): %s",
                             FnName.c_str(), R.ExitCode,
                             excerpt(R.Output).c_str()));

  std::vector<uint8_t> SoBytes;
  std::string Err = readFileBytes(SoFile, SoBytes);
  if (!Err.empty() || SoBytes.empty())
    throw MatlabError(format("native compile of '%s' produced no object: %s",
                             FnName.c_str(), Err.c_str()));
  return SoBytes;
}

std::unique_ptr<NativeModule>
NativeCompiler::load(const std::vector<uint8_t> &SoBytes,
                     const std::string &FnName, size_t NumOuts) {
  faults::killPoint(faults::Site::NativeLoad);
  faults::maybeThrow(faults::Site::NativeLoad);
  obs::TraceScope Span("native.load", "native", FnName.c_str());

  int Fd = memfd_create("majic-native", MFD_CLOEXEC);
  if (Fd < 0)
    throw MatlabError(
        format("native load: memfd_create: %s", std::strerror(errno)));
  size_t Off = 0;
  while (Off < SoBytes.size()) {
    ssize_t N = write(Fd, SoBytes.data() + Off, SoBytes.size() - Off);
    if (N <= 0) {
      close(Fd);
      throw MatlabError(
          format("native load: write: %s", std::strerror(errno)));
    }
    Off += static_cast<size_t>(N);
  }

  // The fd is NOT closed after dlopen: glibc deduplicates dlopen by
  // pathname, so if this fd number were released and reused by a later
  // load, its /proc/self/fd/<N> path would resolve to this already-loaded
  // module and the caller would silently run the wrong machine code.
  // Keeping the fd open for the module's lifetime keeps every live
  // module's load path unique (a live fd number cannot be reallocated).
  std::string FdPath = format("/proc/self/fd/%d", Fd);
  void *Handle = dlopen(FdPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    // dlerror() clears the pending error, so it must be called exactly
    // once: a second call would return NULL and std::string(nullptr) is
    // undefined behavior.
    const char *E = dlerror();
    std::string Err = E ? E : "unknown dlopen error";
    close(Fd);
    throw MatlabError(
        format("native load of '%s' failed: %s", FnName.c_str(), Err.c_str()));
  }

  auto Fail = [&](const std::string &Msg) -> MatlabError {
    dlclose(Handle);
    close(Fd);
    return MatlabError(Msg);
  };
  auto Init = reinterpret_cast<NativeInitFn>(
      dlsym(Handle, "majic_native_init"));
  if (!Init)
    throw Fail(format("native load of '%s': no majic_native_init",
                      FnName.c_str()));
  std::string Sym = entrySymbol(FnName);
  auto Entry = reinterpret_cast<NativeEntryFn>(dlsym(Handle, Sym.c_str()));
  if (!Entry)
    throw Fail(format("native load of '%s': no entry symbol '%s'",
                      FnName.c_str(), Sym.c_str()));
  if (Init(&hostApiTable(), kNativeABIVersion) != 0)
    throw Fail(format("native load of '%s': ABI version mismatch",
                      FnName.c_str()));
  return std::make_unique<NativeModule>(Handle, Entry, FnName, NumOuts, Fd);
}
