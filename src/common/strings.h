// String building that stays warning-clean in optimized builds.
#ifndef ORCHESTRA_COMMON_STRINGS_H_
#define ORCHESTRA_COMMON_STRINGS_H_

#include <string>

namespace orchestra {

/// `prefix` followed by `value` in decimal, such as "k7", built by
/// appending: GCC 12's -Wrestrict misfires on `"k" + std::to_string(7)` in
/// Release builds.
template <typename T>
std::string Tag(const char* prefix, T value) {
  std::string tag = prefix;
  tag += std::to_string(value);
  return tag;
}

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_STRINGS_H_
