//===- support/StringUtils.h - Small string helpers ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string and small string predicates.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_STRINGUTILS_H
#define MAJIC_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace majic {

/// printf into a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(const std::string &S, char Sep);

/// True if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

/// True if \p S is an ASCII identifier, [A-Za-z_][A-Za-z0-9_]*: the shape of
/// every MATLAB function and variable name, and therefore filesystem-safe.
/// Names decoded from disk must pass it before they are used.
bool isIdentifier(const std::string &S);

/// Renders a double the way the MATLAB "format short g" display would,
/// trimming trailing zeros (used by disp/printing and golden tests).
std::string formatDouble(double X);

/// Maps \p S to a valid C identifier: non-[A-Za-z0-9_] characters become
/// '_', and a leading digit (or empty input) gains an underscore prefix.
/// The C emitter and the native compiler driver must agree on the entry
/// symbol a function name produces; both go through here.
std::string cIdentifier(const std::string &S);

/// Escapes \p S for splicing between double quotes in generated C source:
/// backslash, quote, and non-printing bytes (octal escapes, split so a
/// following digit cannot extend them).
std::string cStringEscape(const std::string &S);

} // namespace majic

#endif // MAJIC_SUPPORT_STRINGUTILS_H
