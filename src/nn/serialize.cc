#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "core/hashing.h"
#include "core/log.h"
#include "core/string_util.h"

namespace promptem::nn {

namespace {

// Format v2 ("PEMCKPT2"): magic, u32 endianness tag, u32 entry count,
// entries (u32 name_len, name, u32 ndim, u32 dims..., float32 data),
// u64 FNV-1a hash of every byte after the magic. Readers treat
// checkpoints as adversarial input: every length is bounds-checked
// against the bytes actually remaining in the file before any
// allocation, and the trailing hash catches bit flips that leave the
// structure parseable.
constexpr char kMagic[8] = {'P', 'E', 'M', 'C', 'K', 'P', 'T', '2'};
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxNdim = 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Buffered writer that hashes every byte it emits.
class HashingWriter {
 public:
  explicit HashingWriter(std::FILE* f) : f_(f) {}

  bool Write(const void* data, size_t n) {
    if (n == 0) return true;
    hash_ = core::Fnv1a64(data, n, hash_);
    return std::fwrite(data, 1, n, f_) == n;
  }
  bool WriteU32(uint32_t v) { return Write(&v, sizeof(v)); }
  uint64_t hash() const { return hash_; }

 private:
  std::FILE* f_;
  uint64_t hash_ = core::kFnv1aOffset;
};

/// Reader that tracks the bytes remaining in the file (so element counts
/// can be validated before allocation) and hashes what it consumes.
class HashingReader {
 public:
  HashingReader(std::FILE* f, uint64_t remaining)
      : f_(f), remaining_(remaining) {}

  bool Read(void* data, size_t n) {
    if (n > remaining_) return false;
    if (n == 0) return true;
    if (std::fread(data, 1, n, f_) != n) return false;
    hash_ = core::Fnv1a64(data, n, hash_);
    remaining_ -= n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  uint64_t remaining() const { return remaining_; }
  uint64_t hash() const { return hash_; }

 private:
  std::FILE* f_;
  uint64_t remaining_;
  uint64_t hash_ = core::kFnv1aOffset;
};

core::Result<uint64_t> FileSize(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return core::Status::IOError("cannot seek: " + path);
  }
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return core::Status::IOError("cannot measure size: " + path);
  }
  return static_cast<uint64_t>(size);
}

core::Status WriteBody(const Module& module, HashingWriter* w,
                       const std::string& path) {
  auto params = module.NamedParameters();
  std::set<std::string> seen;
  for (const auto& np : params) {
    if (!seen.insert(np.name).second) {
      return core::Status::InvalidArgument(
          "duplicate parameter name in module: " + np.name);
    }
    if (np.name.size() > kMaxNameLen) {
      return core::Status::InvalidArgument(
          "parameter name too long: " + np.name);
    }
  }
  if (!w->WriteU32(static_cast<uint32_t>(params.size()))) {
    return core::Status::IOError("write header failed: " + path);
  }
  for (const auto& np : params) {
    const auto& shape = np.param.shape();
    if (!w->WriteU32(static_cast<uint32_t>(np.name.size())) ||
        !w->Write(np.name.data(), np.name.size()) ||
        !w->WriteU32(static_cast<uint32_t>(shape.size()))) {
      return core::Status::IOError("write entry failed: " + path);
    }
    for (int d : shape) {
      if (!w->WriteU32(static_cast<uint32_t>(d))) {
        return core::Status::IOError("write shape failed: " + path);
      }
    }
    const size_t n = static_cast<size_t>(np.param.numel());
    if (!w->Write(np.param.data(), n * sizeof(float))) {
      return core::Status::IOError("write data failed: " + path);
    }
  }
  return core::Status::OK();
}

}  // namespace

core::Status SaveCheckpoint(const Module& module, const std::string& path) {
  // Write to a sibling temp file and rename over the target only once the
  // whole checkpoint is durably on disk, so a crash mid-save never leaves
  // a truncated file at `path` (and never clobbers a good previous one).
  const std::string tmp = path + ".tmp";
  core::Status status;
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return core::Status::IOError("cannot open for write: " + tmp);
    HashingWriter w(f.get());
    if (std::fwrite(kMagic, sizeof(kMagic), 1, f.get()) != 1 ||
        !w.WriteU32(kEndianTag)) {
      status = core::Status::IOError("write header failed: " + tmp);
    } else {
      status = WriteBody(module, &w, tmp);
    }
    if (status.ok()) {
      const uint64_t hash = w.hash();
      if (std::fwrite(&hash, sizeof(hash), 1, f.get()) != 1 ||
          std::fflush(f.get()) != 0) {
        status = core::Status::IOError("write checksum failed: " + tmp);
      }
    }
    std::FILE* raw = f.release();
    if (std::fclose(raw) != 0 && status.ok()) {
      status = core::Status::IOError("close failed: " + tmp);
    }
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return core::Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return core::Status::OK();
}

core::Status LoadCheckpoint(Module* module, const std::string& path,
                            bool strict) {
  PROMPTEM_CHECK(module != nullptr);
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return core::Status::IOError("cannot open for read: " + path);
  auto size = FileSize(f.get(), path);
  if (!size.ok()) return size.status();

  char magic[8];
  if (size.value() < sizeof(magic) ||
      std::fread(magic, sizeof(magic), 1, f.get()) != 1) {
    return core::Status::InvalidArgument("checkpoint too short: " + path);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return core::Status::InvalidArgument("bad checkpoint magic: " + path);
  }

  // Body bytes between the magic and the trailing hash.
  uint64_t body = size.value() - sizeof(magic);
  if (body < sizeof(uint64_t)) {
    return core::Status::InvalidArgument("checkpoint truncated: " + path);
  }
  body -= sizeof(uint64_t);
  HashingReader r(f.get(), body);

  uint32_t endian = 0;
  if (!r.ReadU32(&endian)) {
    return core::Status::InvalidArgument("checkpoint truncated: " + path);
  }
  if (endian != kEndianTag) {
    return core::Status::InvalidArgument(
        core::StrFormat("checkpoint endianness mismatch (tag %08x): %s",
                        endian, path.c_str()));
  }
  uint32_t count = 0;
  if (!r.ReadU32(&count)) {
    return core::Status::InvalidArgument(
        "checkpoint truncated reading entry count: " + path);
  }

  std::map<std::string, tensor::Tensor> by_name;
  for (auto& np : module->NamedParameters()) by_name.emplace(np.name, np.param);

  std::set<std::string> seen;
  size_t matched = 0;
  for (uint32_t e = 0; e < count; ++e) {
    uint32_t name_len = 0;
    if (!r.ReadU32(&name_len) || name_len > kMaxNameLen) {
      return core::Status::InvalidArgument(core::StrFormat(
          "entry %u: bad name length in %s", e, path.c_str()));
    }
    std::string name(name_len, '\0');
    if (!r.Read(name.data(), name_len)) {
      return core::Status::InvalidArgument(core::StrFormat(
          "entry %u: truncated name in %s", e, path.c_str()));
    }
    if (!seen.insert(name).second) {
      return core::Status::InvalidArgument("duplicate checkpoint entry: " +
                                           name);
    }
    uint32_t ndim = 0;
    if (!r.ReadU32(&ndim) || ndim > kMaxNdim) {
      return core::Status::InvalidArgument(core::StrFormat(
          "entry %u (%s): bad rank in %s", e, name.c_str(), path.c_str()));
    }
    std::vector<int> shape(ndim);
    // Accumulate the element count in 64 bits and bound it by the bytes
    // actually left in the file *before* allocating, so corrupt dims can
    // neither overflow the count nor trigger a huge allocation.
    uint64_t n = 1;
    const uint64_t max_elems = r.remaining() / sizeof(float);
    for (uint32_t d = 0; d < ndim; ++d) {
      uint32_t dim = 0;
      if (!r.ReadU32(&dim)) {
        return core::Status::InvalidArgument(core::StrFormat(
            "entry %u (%s): truncated shape in %s", e, name.c_str(),
            path.c_str()));
      }
      if (dim > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
        return core::Status::InvalidArgument(core::StrFormat(
            "entry %u (%s): dimension %u out of range", e, name.c_str(),
            dim));
      }
      shape[d] = static_cast<int>(dim);
      n *= dim;
      if (n > max_elems) {
        return core::Status::InvalidArgument(core::StrFormat(
            "entry %u (%s): %llu elements exceed the %llu remaining in %s",
            e, name.c_str(), static_cast<unsigned long long>(n),
            static_cast<unsigned long long>(max_elems), path.c_str()));
      }
    }
    std::vector<float> values(static_cast<size_t>(n));
    if (!r.Read(values.data(), static_cast<size_t>(n) * sizeof(float))) {
      return core::Status::InvalidArgument(core::StrFormat(
          "entry %u (%s): truncated data in %s", e, name.c_str(),
          path.c_str()));
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      if (strict) {
        return core::Status::NotFound("checkpoint param not in module: " +
                                      name);
      }
      continue;
    }
    if (!tensor::SameShape(it->second.shape(), shape)) {
      if (strict) {
        return core::Status::InvalidArgument(
            core::StrFormat("shape mismatch for %s", name.c_str()));
      }
      PROMPTEM_LOG(Warn) << "LoadCheckpoint: skipping " << name
                         << " (shape mismatch) from " << path;
      continue;
    }
    if (n > 0) {
      std::memcpy(it->second.data(), values.data(),
                  static_cast<size_t>(n) * sizeof(float));
    }
    ++matched;
  }
  if (r.remaining() != 0) {
    return core::Status::InvalidArgument(core::StrFormat(
        "%llu trailing bytes after %u entries in %s",
        static_cast<unsigned long long>(r.remaining()), count,
        path.c_str()));
  }
  uint64_t stored = 0;
  if (std::fread(&stored, sizeof(stored), 1, f.get()) != 1) {
    return core::Status::InvalidArgument("checkpoint truncated: " + path);
  }
  if (stored != r.hash()) {
    return core::Status::InvalidArgument("checkpoint checksum mismatch: " +
                                         path);
  }
  if (strict && matched != by_name.size()) {
    return core::Status::FailedPrecondition(
        core::StrFormat("checkpoint matched %zu of %zu module params",
                        matched, by_name.size()));
  }
  return core::Status::OK();
}

core::Status CopyParameters(const Module& source, Module* target) {
  PROMPTEM_CHECK(target != nullptr);
  auto src = source.NamedParameters();
  auto dst = target->NamedParameters();
  if (src.size() != dst.size()) {
    return core::Status::InvalidArgument(core::StrFormat(
        "parameter count mismatch: %zu vs %zu", src.size(), dst.size()));
  }
  std::map<std::string, tensor::Tensor> by_name;
  for (auto& np : dst) by_name.emplace(np.name, np.param);
  for (const auto& np : src) {
    auto it = by_name.find(np.name);
    if (it == by_name.end()) {
      return core::Status::NotFound("target missing param: " + np.name);
    }
    if (!tensor::SameShape(it->second.shape(), np.param.shape())) {
      return core::Status::InvalidArgument("shape mismatch: " + np.name);
    }
    it->second.CopyDataFrom(np.param);
  }
  return core::Status::OK();
}

uint64_t ParameterFingerprint(const Module& module) {
  uint64_t hash = core::kFnv1aOffset;
  for (const auto& np : module.NamedParameters()) {
    hash = core::Fnv1a64(np.name, hash);
    const auto& shape = np.param.shape();
    for (int d : shape) {
      const auto dim = static_cast<uint32_t>(d);
      hash = core::Fnv1a64(&dim, sizeof(dim), hash);
    }
    hash = core::Fnv1a64(np.param.data(),
                         static_cast<size_t>(np.param.numel()) * sizeof(float),
                         hash);
  }
  return hash;
}

}  // namespace promptem::nn
