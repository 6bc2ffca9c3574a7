// Checked numeric flag values for the command-line tools.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/strings.hpp"

namespace intellog::tools {

/// `text` parsed as a T, or a one-line error naming `flag` on stderr and
/// exit code 2 (the tools' usage-error code).
template <typename T>
T numeric_flag(const char* prog, const std::string& flag, const std::string& text) {
  if (const auto value = common::parse_number<T>(text)) return *value;
  std::cerr << prog << ": " << flag << " expects a number, got '" << text << "'\n";
  std::exit(2);
}

}  // namespace intellog::tools
