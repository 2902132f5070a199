#include "storage/keys.h"

namespace orchestra::storage::keys {

void AppendLenPrefixed(std::string* out, std::string_view s) {
  uint64_t v = s.size();
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
  out->append(s);
}

void AppendEpochBE(std::string* out, Epoch e) {
  for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>(e >> (8 * i)));
}

std::string Data(std::string_view relation, const HashId& hash,
                 std::string_view key_bytes, Epoch epoch) {
  Writer w;
  hash.EncodeTo(&w);
  return DataRaw(relation, w.data(), key_bytes, epoch);
}

std::string DataRaw(std::string_view relation, std::string_view hash_be20,
                    std::string_view key_bytes, Epoch epoch) {
  std::string k;
  AppendDataRaw(&k, relation, hash_be20, key_bytes, epoch);
  return k;
}

void AppendDataRaw(std::string* out, std::string_view relation,
                   std::string_view hash_be20, std::string_view key_bytes, Epoch epoch) {
  out->push_back(kDataTag);
  AppendLenPrefixed(out, relation);
  out->append(hash_be20);
  AppendLenPrefixed(out, key_bytes);
  AppendEpochBE(out, epoch);
}

std::string DataPrefix(std::string_view relation) {
  std::string k = "D";
  AppendLenPrefixed(&k, relation);
  return k;
}

std::string PageRec(std::string_view relation, Epoch epoch, uint32_t partition) {
  std::string k = "P";
  AppendLenPrefixed(&k, relation);
  for (int i = 3; i >= 0; --i) k.push_back(static_cast<char>(partition >> (8 * i)));
  AppendEpochBE(&k, epoch);
  return k;
}

std::string Coord(std::string_view relation, Epoch epoch) {
  std::string k = "C";
  AppendLenPrefixed(&k, relation);
  AppendEpochBE(&k, epoch);
  return k;
}

std::string Catalog(std::string_view relation) {
  std::string k = "M";
  AppendLenPrefixed(&k, relation);
  return k;
}

std::string EpochClaim(Epoch epoch) {
  std::string k = "E";
  AppendEpochBE(&k, epoch);
  return k;
}

// --- Key parser -------------------------------------------------------------
// Built on Reader (the same decoder as the wire formats) for the varint
// length prefixes; the big-endian integers are key-layout-specific (Reader's
// fixed-width integers are little-endian) and decoded here.

namespace {

bool ReadEpochBE(Reader* r, Epoch* out) {
  std::string_view raw;
  if (!r->GetRawView(&raw, 8).ok()) return false;
  Epoch e = 0;
  for (int i = 0; i < 8; ++i) e = (e << 8) | static_cast<unsigned char>(raw[i]);
  *out = e;
  return true;
}

bool ReadU32BE(Reader* r, uint32_t* out) {
  std::string_view raw;
  if (!r->GetRawView(&raw, 4).ok()) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<unsigned char>(raw[i]);
  *out = v;
  return true;
}

}  // namespace

bool Parse(std::string_view key, ParsedKey* out) {
  *out = ParsedKey{};
  if (key.empty()) return false;
  out->tag = key[0];
  Reader r(key.substr(1));
  bool ok = false;
  switch (out->tag) {
    case kDataTag:
      ok = r.GetStringView(&out->relation).ok() &&
           r.GetRawView(&out->hash_be20, 20).ok() &&
           r.GetStringView(&out->key_bytes).ok() && ReadEpochBE(&r, &out->epoch);
      break;
    case kPageTag:
      ok = r.GetStringView(&out->relation).ok() &&
           ReadU32BE(&r, &out->partition) && ReadEpochBE(&r, &out->epoch);
      break;
    case kCoordTag:
      ok = r.GetStringView(&out->relation).ok() && ReadEpochBE(&r, &out->epoch);
      break;
    case kClaimTag:
      ok = ReadEpochBE(&r, &out->epoch);
      break;
    case kCatalogTag:
      ok = r.GetStringView(&out->relation).ok();
      break;
    default:
      break;
  }
  return ok && r.AtEnd();
}

std::string_view VersionGroupPrefix(std::string_view key) {
  if (key.size() < 9) return {};  // tag + 8-byte epoch minimum
  return key.substr(0, key.size() - 8);
}

}  // namespace orchestra::storage::keys
