// Snapshot payload format: the durable serving state of one AmsRouter,
// the model in force and the policy repository, as a flat record stream
// (DESIGN.md §11).
//
//   Header  (tag 1)  magic "AGNPSNAP", format version, model version,
//                    model text (serialized ASG, empty = no learned
//                    model), model note, repository version + truncated
//                    flag, creation wall-clock seconds
//   Policy  (tag 2)  one stored policy: text, source, stamping version
//   Footer  (tag 4)  policy count
//
// Decision-cache entries are not persisted: a verdict is a function of
// request, context and model, and the next miss recomputes it under the
// model then in force. Format 1 carried them (tag 3); this build reads
// format 2 only.
//
// A snapshot is valid only when the header parses, the format version is
// the one this build writes, and the footer's count matches what was
// read — a file that ends without its footer (torn writer, truncated
// copy) is rejected as a whole rather than half-loaded, because
// atomic_write_file means a good snapshot is always all-or-nothing on
// disk.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace agenp::store {

inline constexpr std::string_view kSnapshotMagic = "AGNPSNAP";
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

// One policy-repository entry (tokens re-tokenized from text on restore).
struct PolicyRecord {
    std::string text;
    std::string source;
    std::uint64_t version = 0;
};

struct SnapshotData {
    std::uint64_t model_version = 0;
    std::string model_text;  // asg::AnswerSetGrammar::to_string(); "" = none
    std::string model_note;
    std::uint64_t repo_version = 0;
    bool repo_truncated = false;
    std::uint64_t created_unix_s = 0;
    std::vector<PolicyRecord> policies;
};

// Serializes `data` as a framed record stream ready for atomic_write_file.
std::string encode_snapshot(const SnapshotData& data);

// Parses a snapshot file's bytes. On failure returns false with a
// one-line reason in *error ("snapshot format version 1 is not
// supported (this build reads version 2)", "snapshot footer missing",
// ...); *data is unspecified.
bool decode_snapshot(std::string_view bytes, SnapshotData* data, std::string* error);

}  // namespace agenp::store
