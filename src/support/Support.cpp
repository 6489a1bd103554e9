//===- support/Support.cpp - Support library implementation --------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Diagnostics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace majic;

void majic::reportUnreachable(const char *Message, const char *File,
                              unsigned Line) {
  std::fprintf(stderr, "majic internal error at %s:%u: %s\n", File, Line,
               Message);
  std::abort();
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

uint32_t SourceManager::addBuffer(std::string Name, std::string Contents) {
  Files.push_back({std::move(Name), std::move(Contents)});
  return static_cast<uint32_t>(Files.size()); // Ids are 1-based.
}

const std::string &SourceManager::bufferName(uint32_t FileId) const {
  assert(FileId >= 1 && FileId <= Files.size() && "bad FileId");
  return Files[FileId - 1].Name;
}

const std::string &SourceManager::bufferContents(uint32_t FileId) const {
  assert(FileId >= 1 && FileId <= Files.size() && "bad FileId");
  return Files[FileId - 1].Contents;
}

std::string SourceManager::describe(SourceLoc Loc) const {
  if (!Loc.isValid() || Loc.FileId == 0 || Loc.FileId > Files.size())
    return "<unknown>";
  return format("%s:%u:%u", Files[Loc.FileId - 1].Name.c_str(), Loc.Line,
                Loc.Col);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

std::string Diagnostics::render(const SourceManager &SM) const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    const char *Kind = D.Kind == DiagKind::Error     ? "error"
                       : D.Kind == DiagKind::Warning ? "warning"
                                                     : "note";
    Out += format("%s: %s: %s\n", SM.describe(D.Loc).c_str(), Kind,
                  D.Message.c_str());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// PhaseTimes
//===----------------------------------------------------------------------===//

const char *PhaseTimes::phaseName(Phase P) {
  switch (P) {
  case Phase::Parse:
    return "parse";
  case Phase::Disambiguate:
    return "disamb";
  case Phase::TypeInference:
    return "typeinf";
  case Phase::CodeGen:
    return "codegen";
  case Phase::Execute:
    return "exec";
  case Phase::NumPhases:
    break;
  }
  majic_unreachable("invalid phase");
}

//===----------------------------------------------------------------------===//
// String utilities
//===----------------------------------------------------------------------===//

std::string majic::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out(Size > 0 ? static_cast<size_t>(Size) : 0, '\0');
  if (Size > 0)
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  va_end(Args);
  return Out;
}

std::vector<std::string> majic::splitString(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(S.substr(Start));
      return Parts;
    }
    Parts.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool majic::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::string majic::formatDouble(double X) {
  // Integral values shorter than 2^53 print without a decimal point, the
  // way MATLAB's short-g display does.
  if (X == static_cast<long long>(X) && X > -1e15 && X < 1e15)
    return format("%lld", static_cast<long long>(X));
  std::string S = format("%.5g", X);
  return S;
}

bool majic::isIdentifier(const std::string &S) {
  auto Word = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
  };
  if (S.empty() || !Word(S[0]))
    return false;
  for (char C : S)
    if (!Word(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

std::string majic::cIdentifier(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 1);
  for (char C : S) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out.push_back(Ok ? C : '_');
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string majic::cStringEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20 || C == 0x7f) {
        // Close the literal around the octal escape so a digit that
        // follows cannot be absorbed into it.
        Out += format("\\%03o\" \"", C);
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  return Out;
}
