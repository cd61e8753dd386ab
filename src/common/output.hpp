// Writing a finished document (results, metrics snapshot, timeline) to a
// destination named on the command line.
#pragma once

#include <string>

namespace exs {

/// Writes `content` and a newline to `path`; "-" is stdout and "" writes
/// nothing.  A destination that cannot be written prints
/// "cannot write PATH" on stderr and exits the process with status 2: the
/// path is user input, so a bad one is a usage error, not a broken
/// simulator invariant.
void WriteOutputOrExit(const std::string& path, const std::string& content);

}  // namespace exs
