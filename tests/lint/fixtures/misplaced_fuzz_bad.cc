// Known-bad fixture: a fuzz driver. Linted under synthetic paths; it is a
// finding only under src/ outside src/testing/.

#include <cstdint>
#include <string>

std::string FuzzSomething(uint64_t seed, int iterations) {
  return std::to_string(seed + static_cast<uint64_t>(iterations));
}
