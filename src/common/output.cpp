#include "common/output.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

namespace exs {

void WriteOutputOrExit(const std::string& path, const std::string& content) {
  if (path.empty()) return;
  if (path == "-") {
    std::cout << content << "\n" << std::flush;
    if (std::cout) return;
  } else {
    // Close before checking: a full device fails only when the buffer is
    // flushed.
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << content << "\n";
    file.close();
    if (file) return;
  }
  std::cerr << "cannot write " << path << "\n";
  std::exit(2);
}

}  // namespace exs
