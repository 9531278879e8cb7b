#include "wal/snapshot.h"

#include <cstdio>
#include <cstring>

#include "common/codec.h"
#include "wal/frame.h"

namespace sedna::wal {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'D', 'N', 'A', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;

/// One item frame, written from and read back into a store::Item. The
/// causal record is a tail: older snapshots end the frame before it.
constexpr auto kItemLayout = [](auto& io, auto& item) {
  io(item.key, item.has_latest);
  if (item.has_latest) io(item.latest);
  io(item.value_list, item.expires_at);
  io.tail(!item.causal.empty(), item.causal);
};

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
      ok = write_frame(f, wire_encode(item, kItemLayout));
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
    store::Item item;
    if (!wire_decode(*payload, item, kItemLayout)) break;
    // Expiry is absolute on the store's clock: an item already past it
    // stays gone, the rest keep their deadline.
    if (item.expires_at != 0 && store.clock_now() >= item.expires_at) continue;
    if (item.has_latest) {
      store.write_latest(item.key, item.latest.value, item.latest.ts,
                         item.latest.flags);
    }
    for (const auto& sv : item.value_list) {
      store.write_all(item.key, sv.source, sv.value, sv.ts);
    }
    if (!item.causal.empty()) store.merge_causal(item.key, item.causal);
    if (item.expires_at != 0) store.expire_at(item.key, item.expires_at);
    ++restored;
  }
  std::fclose(f);
  return restored;
}

}  // namespace sedna::wal
