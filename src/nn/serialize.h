#ifndef PROMPTEM_NN_SERIALIZE_H_
#define PROMPTEM_NN_SERIALIZE_H_

#include <string>

#include "core/status.h"
#include "nn/module.h"

namespace promptem::nn {

/// Writes all named parameters of `module` to a binary checkpoint.
/// Format v2: magic "PEMCKPT2", u32 endianness tag (0x01020304), u32
/// count, then per parameter: u32 name_len, name bytes, u32 ndim,
/// u32 dims..., float32 data; finally a u64 FNV-1a hash of every byte
/// after the magic. The save is atomic: it writes "<path>.tmp" and
/// renames it over `path` only after the full file (checksum included)
/// is flushed, so an interrupted save never leaves a partial checkpoint
/// at the target path.
core::Status SaveCheckpoint(const Module& module, const std::string& path);

/// Loads a checkpoint into `module`, treating the file as untrusted
/// input: every length field is bounds-checked against the bytes left in
/// the file before anything is allocated, truncation and trailing
/// garbage are detected, and the checksum catches byte corruption. Any
/// other format (including the retired v1 "PEMCKPT1") is rejected.
///
/// strict=true: every stored name must exist in the module with an
/// identical shape and every module parameter must be matched.
/// strict=false: unknown names and shape-mismatched entries are skipped
/// (the latter with a logged warning); unmatched module parameters keep
/// their current values. Structural corruption is an error either way.
core::Status LoadCheckpoint(Module* module, const std::string& path,
                            bool strict = true);

/// In-memory deep copy of parameters from one module into another with the
/// same architecture (used to clone the pre-trained LM into each method's
/// model, and the teacher into the student).
core::Status CopyParameters(const Module& source, Module* target);

/// Content fingerprint of a module: FNV-1a over every parameter's dotted
/// name, shape, and float32 bytes in NamedParameters order. Two modules
/// with identical architecture and weights fingerprint identically —
/// across processes, so deterministically-initialized models are
/// restart-stable and persisted caches can key embeddings on the model
/// that produced them. Any weight update changes the fingerprint.
uint64_t ParameterFingerprint(const Module& module);

}  // namespace promptem::nn

#endif  // PROMPTEM_NN_SERIALIZE_H_
