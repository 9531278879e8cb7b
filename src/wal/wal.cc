#include "wal/wal.h"

#include "wal/frame.h"

namespace sedna::wal {

Status WriteAheadLog::open() {
  if (file_ != nullptr) return Status::Ok();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open wal: " + path_);
  }
  return Status::Ok();
}

void WriteAheadLog::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WriteAheadLog::append(const WalRecord& record) {
  if (file_ == nullptr) {
    const Status st = open();
    if (!st.ok()) return st;
  }
  const std::string payload = record.encode();
  if (!write_frame(file_, payload)) return Status::IoError("wal append failed");
  ++appended_;
  bytes_ += kFrameHeaderBytes + payload.size();
  return Status::Ok();
}

Status WriteAheadLog::sync() {
  if (file_ == nullptr) return Status::Ok();
  if (std::fflush(file_) != 0) return Status::IoError("wal flush failed");
  return Status::Ok();
}

Result<std::uint64_t> WriteAheadLog::replay(
    const std::string& path,
    const std::function<void(const WalRecord&)>& fn,
    std::uint64_t* intact_end) {
  if (intact_end != nullptr) *intact_end = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::uint64_t{0};  // no log = nothing to recover

  std::uint64_t recovered = 0;
  std::uint64_t end = 0;
  while (auto payload = read_frame(f)) {
    auto rec = WalRecord::decode(*payload);
    if (!rec.ok()) break;
    fn(rec.value());
    ++recovered;
    end += kFrameHeaderBytes + payload->size();
  }
  if (intact_end != nullptr) *intact_end = end;
  std::fclose(f);
  return recovered;
}

Status WriteAheadLog::reset() {
  close();
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot truncate wal");
  std::fclose(f);
  appended_ = 0;
  bytes_ = 0;
  return open();
}

}  // namespace sedna::wal
