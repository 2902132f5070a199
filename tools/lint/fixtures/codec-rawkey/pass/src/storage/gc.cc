#include "storage/keys.h"

namespace orchestra::storage {
// Family dispatch through the one key parser.
bool IsCoord(std::string_view key) {
  keys::ParsedKey pk;
  return keys::Parse(key, &pk) && pk.tag == keys::kCoordTag;
}
}  // namespace orchestra::storage
