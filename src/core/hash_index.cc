#include "core/hash_index.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/hashing.h"

namespace promptem::core {

namespace {

// File format "PEMHIDX1": fixed 48-byte header (magic, u32 endianness
// tag, u32 version, u64 key_count, u64 slot_count, u64 payload_bytes,
// u64 FNV-1a of the preceding 40 bytes), slot array, packed payload,
// trailing u64 FNV-1a over every preceding byte. Same adversarial-input
// discipline as checkpoint v2 and the embedding-cache file.
constexpr char kMagic[8] = {'P', 'E', 'M', 'H', 'I', 'D', 'X', '1'};
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kVersion = 1;
constexpr uint64_t kHeaderBytes = 48;
constexpr uint64_t kEmptyOffset = UINT64_MAX;

/// Payload offsets are 8-byte aligned so postings lists and float blobs
/// can be read in place from the mapping without unaligned access.
uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~static_cast<uint64_t>(7); }

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// fwrite folding every byte into a running FNV-1a hash (the trailer).
class HashingWriter {
 public:
  explicit HashingWriter(std::FILE* f) : f_(f) {}

  bool Write(const void* data, size_t n) {
    hash_ = Fnv1a64(data, n, hash_);
    return std::fwrite(data, 1, n, f_) == n;
  }
  bool WriteU32(uint32_t v) { return Write(&v, sizeof(v)); }
  bool WriteU64(uint64_t v) { return Write(&v, sizeof(v)); }
  uint64_t hash() const { return hash_; }

 private:
  std::FILE* f_;
  uint64_t hash_ = kFnv1aOffset;
};

Status Corrupt(const std::string& path, uint64_t offset,
               const std::string& check) {
  return Status::InvalidArgument("corrupt hash index (" + check +
                                 " at offset " + std::to_string(offset) +
                                 "): " + path);
}

}  // namespace

struct HashIndex::SealedState {
  struct Slot {
    uint64_t key;
    uint64_t offset;  // into the payload section; kEmptyOffset = empty
    uint64_t size;
  };
  static_assert(sizeof(Slot) == 24, "Slot must be packed");

  // Owned storage: exactly one of (slots_ram, payload_ram) / (map) is
  // populated; the view pointers below point into whichever owns.
  std::vector<Slot> slots_ram;
  std::vector<uint8_t> payload_ram;
  void* map = nullptr;
  uint64_t map_size = 0;

  const Slot* slots = nullptr;
  uint64_t slot_count = 0;  // power of two; 0 only for the empty state
  const uint8_t* payload = nullptr;
  uint64_t payload_bytes = 0;  // packed bytes incl. alignment padding
  uint64_t key_count = 0;
  uint64_t file_bytes = 0;

  ~SealedState() {
    if (map != nullptr) ::munmap(map, static_cast<size_t>(map_size));
  }

  const Slot* FindSlot(uint64_t key) const {
    if (slot_count == 0) return nullptr;
    const uint64_t mask = slot_count - 1;
    // Linear probe from the key's home slot. The table is kept at most
    // half full, so an empty slot (= miss) is always reachable.
    for (uint64_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots[i];
      if (s.offset == kEmptyOffset) return nullptr;
      if (s.key == key) return &s;
    }
  }

  /// Occupied slots in ascending key order (seal/merge/stats paths).
  std::vector<const Slot*> SortedSlots() const {
    std::vector<const Slot*> out;
    out.reserve(static_cast<size_t>(key_count));
    for (uint64_t i = 0; i < slot_count; ++i) {
      if (slots[i].offset != kEmptyOffset) out.push_back(&slots[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const Slot* a, const Slot* b) { return a->key < b->key; });
    return out;
  }
};

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

HashIndex::Span HashIndex::Snapshot::Find(uint64_t key) const {
  if (!state_) return {};
  const SealedState::Slot* s = state_->FindSlot(key);
  if (s == nullptr) return {};
  return {state_->payload + s->offset, s->size};
}

bool HashIndex::Snapshot::FindPostings(uint64_t key, const int32_t** values,
                                       size_t* count) const {
  const Span span = Find(key);
  if (span.data == nullptr) return false;
  *values = reinterpret_cast<const int32_t*>(span.data);
  *count = static_cast<size_t>(span.size / sizeof(int32_t));
  return true;
}

size_t HashIndex::Snapshot::key_count() const {
  return state_ ? static_cast<size_t>(state_->key_count) : 0;
}

uint64_t HashIndex::Snapshot::payload_bytes() const {
  return state_ ? state_->payload_bytes : 0;
}

uint64_t HashIndex::Snapshot::ram_bytes() const {
  if (!state_) return 0;
  return state_->slots_ram.size() * sizeof(SealedState::Slot) +
         state_->payload_ram.size();
}

uint64_t HashIndex::Snapshot::file_bytes() const {
  return state_ ? state_->file_bytes : 0;
}

void HashIndex::Snapshot::ForEach(
    const std::function<void(uint64_t key, Span payload)>& fn) const {
  if (!state_) return;
  for (const SealedState::Slot* s : state_->SortedSlots()) {
    fn(s->key, Span{state_->payload + s->offset, s->size});
  }
}

// ---------------------------------------------------------------------------
// HashIndex: construction / open
// ---------------------------------------------------------------------------

HashIndex::HashIndex(Options options)
    : HashIndex(std::move(options), std::make_shared<const SealedState>()) {}

HashIndex::HashIndex(Options options,
                     std::shared_ptr<const SealedState> sealed)
    : options_(std::move(options)),
      shards_(new Shard[kNumShards]),
      sealed_(std::move(sealed)) {}

HashIndex::~HashIndex() = default;

namespace {

/// Maps and fully validates an index file. On any failure nothing is
/// retained — corruption is rejected wholesale before a single entry is
/// visible to a reader.
Result<std::shared_ptr<const HashIndex::SealedState>> MapAndValidate(
    const std::string& path) {
  using Slot = HashIndex::SealedState::Slot;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kHeaderBytes + sizeof(uint64_t)) {
    ::close(fd);
    return Corrupt(path, size, "file too small");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return Status::IOError("cannot mmap: " + path);
  auto state = std::make_shared<HashIndex::SealedState>();
  state->map = map;  // unmapped by the destructor on every exit path
  state->map_size = size;

  const uint8_t* base = static_cast<const uint8_t*>(map);
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, 0, "bad magic");
  }
  uint32_t endian = 0;
  uint32_t version = 0;
  std::memcpy(&endian, base + 8, sizeof(endian));
  std::memcpy(&version, base + 12, sizeof(version));
  if (endian != kEndianTag) return Corrupt(path, 8, "endianness mismatch");
  if (version != kVersion) return Corrupt(path, 12, "unsupported version");
  uint64_t key_count = 0;
  uint64_t slot_count = 0;
  uint64_t payload_bytes = 0;
  uint64_t header_hash = 0;
  std::memcpy(&key_count, base + 16, sizeof(key_count));
  std::memcpy(&slot_count, base + 24, sizeof(slot_count));
  std::memcpy(&payload_bytes, base + 32, sizeof(payload_bytes));
  std::memcpy(&header_hash, base + 40, sizeof(header_hash));
  if (header_hash != Fnv1a64(base, 40)) {
    return Corrupt(path, 40, "header checksum mismatch");
  }
  // Structure checks, all bounds-checked against the real file size
  // before any of the body is trusted.
  if (slot_count < 8 || (slot_count & (slot_count - 1)) != 0) {
    return Corrupt(path, 24, "slot count not a power of two");
  }
  if (key_count * 2 > slot_count) {
    return Corrupt(path, 16, "key count exceeds half the slots");
  }
  if (slot_count > (size - kHeaderBytes) / sizeof(Slot)) {
    return Corrupt(path, 24, "slot table exceeds file size");
  }
  const uint64_t expected = kHeaderBytes + slot_count * sizeof(Slot) +
                            payload_bytes + sizeof(uint64_t);
  if (expected != size) return Corrupt(path, 32, "file size mismatch");
  uint64_t trailer = 0;
  std::memcpy(&trailer, base + size - sizeof(trailer), sizeof(trailer));
  if (trailer != Fnv1a64(base, size - sizeof(trailer))) {
    return Corrupt(path, size - sizeof(trailer), "checksum mismatch");
  }

  const Slot* slots = reinterpret_cast<const Slot*>(base + kHeaderBytes);
  uint64_t occupied = 0;
  for (uint64_t i = 0; i < slot_count; ++i) {
    if (slots[i].offset == kEmptyOffset) continue;
    ++occupied;
    if (slots[i].offset > payload_bytes ||
        slots[i].size > payload_bytes - slots[i].offset) {
      return Corrupt(path, kHeaderBytes + i * sizeof(Slot),
                     "slot out of payload bounds");
    }
  }
  if (occupied != key_count) {
    return Corrupt(path, 16, "slot occupancy disagrees with key count");
  }

  state->slots = slots;
  state->slot_count = slot_count;
  state->payload = base + kHeaderBytes + slot_count * sizeof(Slot);
  state->payload_bytes = payload_bytes;
  state->key_count = key_count;
  state->file_bytes = size;
  return std::shared_ptr<const HashIndex::SealedState>(std::move(state));
}

}  // namespace

Result<std::unique_ptr<HashIndex>> HashIndex::Open(const std::string& path) {
  auto state = MapAndValidate(path);
  if (!state.ok()) return state.status();
  Options options;
  options.backend = Backend::kMmap;
  options.path = path;
  return std::unique_ptr<HashIndex>(
      new HashIndex(std::move(options), std::move(state).value()));
}

HashIndex::Snapshot HashIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(sealed_mu_);
  return Snapshot(sealed_);
}

void HashIndex::Publish(std::shared_ptr<const SealedState> state) {
  {
    std::lock_guard<std::mutex> lock(sealed_mu_);
    sealed_.swap(state);
  }
  // `state` now holds the previous generation; releasing it (an munmap
  // for kMmap) happens outside the lock.
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

void HashIndex::Add(uint64_t key, uint64_t rank, const void* data,
                    size_t size) {
  PROMPTEM_CHECK(size <= UINT32_MAX);
  Shard& shard = shards_[Mix64(key) % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint64_t offset = shard.arena.size();
  if (size > 0) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    shard.arena.insert(shard.arena.end(), bytes, bytes + size);
  }
  shard.entries.push_back(
      PendingEntry{key, rank, offset, static_cast<uint32_t>(size)});
}

void HashIndex::AddPosting(uint64_t key, int32_t value) {
  // rank = value keeps a key's sealed postings list ascending no matter
  // the insertion order (the order legacy sorted band arrays emit).
  Add(key, static_cast<uint64_t>(static_cast<uint32_t>(value)), &value,
      sizeof(value));
}

Status HashIndex::Seal() {
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  // Drain each shard's staging under its own lock, one shard at a time —
  // never all kNumShards at once (TSan's deadlock detector aborts the
  // process at 64 simultaneously-held locks, and holding them buys
  // nothing: an Add racing the drain lands in the next generation either
  // way). Readers never block — they keep probing the previous snapshot
  // until the new one is published.
  std::vector<std::vector<PendingEntry>> staged_entries(kNumShards);
  std::vector<std::vector<uint8_t>> staged_arenas(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    staged_entries[i] = std::move(shard.entries);
    staged_arenas[i] = std::move(shard.arena);
    shard.entries = {};
    shard.arena = {};
  }

  // Gather pending values and order them (key asc, rank asc, payload
  // asc), dropping exact duplicates: the sealed image becomes a pure
  // function of the staged multiset, independent of insertion order and
  // pool size.
  struct PendingRef {
    uint64_t key;
    uint64_t rank;
    const uint8_t* data;
    uint32_t size;
  };
  std::vector<PendingRef> pending;
  size_t total_pending = 0;
  for (size_t i = 0; i < kNumShards; ++i) total_pending += staged_entries[i].size();
  pending.reserve(total_pending);
  for (size_t i = 0; i < kNumShards; ++i) {
    const std::vector<uint8_t>& arena = staged_arenas[i];
    for (const PendingEntry& e : staged_entries[i]) {
      pending.push_back(
          PendingRef{e.key, e.rank, arena.data() + e.offset, e.size});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingRef& a, const PendingRef& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.rank != b.rank) return a.rank < b.rank;
              return std::lexicographical_compare(a.data, a.data + a.size,
                                                  b.data, b.data + b.size);
            });
  pending.erase(
      std::unique(pending.begin(), pending.end(),
                  [](const PendingRef& a, const PendingRef& b) {
                    return a.key == b.key && a.rank == b.rank &&
                           a.size == b.size &&
                           std::memcmp(a.data, b.data, a.size) == 0;
                  }),
      pending.end());

  // Only Seal writes sealed_, and seal_mu_ is held: no lock needed to read.
  const std::shared_ptr<const SealedState> old = sealed_;

  // Merge plan in ascending key order: staged keys replace their sealed
  // payload, untouched sealed keys carry over (for the mmap backend the
  // carried bytes stream file -> file below, no RAM round trip).
  struct MergedKey {
    uint64_t key;
    size_t pending_begin = 0;  // [begin, end) into `pending` when staged
    size_t pending_end = 0;
    const SealedState::Slot* carried = nullptr;  // else carried slot
    uint64_t size = 0;
    uint64_t offset = 0;
  };
  std::vector<MergedKey> merged;
  {
    const std::vector<const SealedState::Slot*> old_sorted =
        old->SortedSlots();
    merged.reserve(old_sorted.size() + pending.size());
    size_t p = 0;
    size_t o = 0;
    while (p < pending.size() || o < old_sorted.size()) {
      MergedKey m;
      const bool take_pending =
          p < pending.size() &&
          (o >= old_sorted.size() || pending[p].key <= old_sorted[o]->key);
      if (take_pending) {
        m.key = pending[p].key;
        m.pending_begin = p;
        while (p < pending.size() && pending[p].key == m.key) {
          m.size += pending[p].size;
          ++p;
        }
        m.pending_end = p;
        if (o < old_sorted.size() && old_sorted[o]->key == m.key) ++o;
      } else {
        m.key = old_sorted[o]->key;
        m.carried = old_sorted[o];
        m.size = old_sorted[o]->size;
        ++o;
      }
      merged.push_back(m);
    }
  }

  const uint64_t key_count = merged.size();
  uint64_t slot_count = 8;
  while (slot_count < key_count * 2) slot_count <<= 1;
  uint64_t payload_bytes = 0;
  for (MergedKey& m : merged) {
    m.offset = payload_bytes;
    payload_bytes = AlignUp8(payload_bytes + m.size);
  }

  // Slot table, inserted in ascending key order so the probe layout (and
  // thus the file image) is deterministic for a given key set.
  std::vector<SealedState::Slot> slots(
      static_cast<size_t>(slot_count),
      SealedState::Slot{0, kEmptyOffset, 0});
  const uint64_t mask = slot_count - 1;
  for (const MergedKey& m : merged) {
    uint64_t i = Mix64(m.key) & mask;
    while (slots[static_cast<size_t>(i)].offset != kEmptyOffset) {
      i = (i + 1) & mask;
    }
    slots[static_cast<size_t>(i)] =
        SealedState::Slot{m.key, m.offset, m.size};
  }

  auto payload_of = [&](const MergedKey& m,
                        const std::function<void(const void*, size_t)>& sink) {
    if (m.carried != nullptr) {
      sink(old->payload + m.carried->offset, static_cast<size_t>(m.size));
    } else {
      for (size_t i = m.pending_begin; i < m.pending_end; ++i) {
        sink(pending[i].data, pending[i].size);
      }
    }
    static constexpr uint8_t kPad[8] = {0};
    const uint64_t padded = AlignUp8(m.size) - m.size;
    if (padded > 0) sink(kPad, static_cast<size_t>(padded));
  };

  std::shared_ptr<SealedState> fresh;
  if (options_.backend == Backend::kRam) {
    fresh = std::make_shared<SealedState>();
    fresh->payload_ram.reserve(static_cast<size_t>(payload_bytes));
    for (const MergedKey& m : merged) {
      payload_of(m, [&](const void* data, size_t n) {
        const uint8_t* bytes = static_cast<const uint8_t*>(data);
        fresh->payload_ram.insert(fresh->payload_ram.end(), bytes, bytes + n);
      });
    }
    fresh->slots_ram = std::move(slots);
    fresh->slots = fresh->slots_ram.data();
    fresh->payload = fresh->payload_ram.data();
  } else {
    if (options_.path.empty()) {
      return Status::InvalidArgument("mmap hash index has no path");
    }
    const std::string tmp = options_.path + ".tmp";
    {
      FilePtr f(std::fopen(tmp.c_str(), "wb"));
      if (!f) return Status::IOError("cannot open for write: " + tmp);
      HashingWriter w(f.get());
      bool ok = w.Write(kMagic, sizeof(kMagic)) && w.WriteU32(kEndianTag) &&
                w.WriteU32(kVersion) && w.WriteU64(key_count) &&
                w.WriteU64(slot_count) && w.WriteU64(payload_bytes) &&
                // Running hash now covers exactly the first 40 bytes.
                w.WriteU64(w.hash()) &&
                w.Write(slots.data(), slots.size() * sizeof(slots[0]));
      for (const MergedKey& m : merged) {
        if (!ok) break;
        payload_of(m, [&](const void* data, size_t n) {
          ok = ok && w.Write(data, n);
        });
      }
      if (ok) {
        const uint64_t trailer = w.hash();
        ok = std::fwrite(&trailer, 1, sizeof(trailer), f.get()) ==
             sizeof(trailer);
      }
      if (ok) ok = std::fflush(f.get()) == 0;
      if (!ok) {
        std::remove(tmp.c_str());
        return Status::IOError("write failed: " + tmp);
      }
    }
    if (std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::IOError("rename failed: " + options_.path);
    }
    auto mapped = MapAndValidate(options_.path);
    if (!mapped.ok()) return mapped.status();
    Publish(std::move(mapped).value());
    return Status::OK();
  }

  fresh->slot_count = slot_count;
  fresh->payload_bytes = payload_bytes;
  fresh->key_count = key_count;
  Publish(std::shared_ptr<const SealedState>(std::move(fresh)));
  return Status::OK();
}

}  // namespace promptem::core
