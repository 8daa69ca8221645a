// On-disk record framing for the persistence subsystem (DESIGN.md §11).
//
// The snapshot file is a flat sequence of framed records:
//
//   u32 payload_len (LE) | u32 crc32(payload) (LE) | payload bytes
//
// The frame is the unit of corruption detection: a reader walks records
// from the front and stops at the first frame whose length runs past EOF
// or whose CRC does not match. Everything before that point is trusted;
// everything after is a corrupt or torn tail, which the caller rejects.
//
// Payload encoding is the caller's business (see snapshot.hpp); this
// layer only moves validated byte strings. No dependencies beyond
// the standard library and POSIX file APIs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace agenp::store {

// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the checksum used by
// gzip/zlib/PNG. crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(std::string_view data);

// Frames cap individual payloads so a corrupt length field can never ask
// the reader to allocate gigabytes: payloads above this are invalid.
inline constexpr std::uint32_t kMaxRecordPayload = 64u << 20;

// Appends one framed record to `out`.
void append_record(std::string& out, std::string_view payload);

// Walks `data` from the front, appending each CRC-valid payload to
// `payloads`. Returns the number of bytes consumed by valid records; any
// remainder (data.size() - returned) is the torn/corrupt tail.
std::size_t read_records(std::string_view data, std::vector<std::string>* payloads);

// --- little-endian primitive encoding (payload building blocks) -------------

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_string(std::string& out, std::string_view s);  // u32 length + bytes

// Cursor-based decoding; every get_* returns false (leaving outputs
// untouched) on truncation instead of throwing, so a corrupt payload that
// passed its CRC (a writer bug, not disk damage) degrades to a parse
// error, never UB.
struct Cursor {
    std::string_view data;
    std::size_t pos = 0;
    [[nodiscard]] bool done() const { return pos >= data.size(); }
};

bool get_u8(Cursor& c, std::uint8_t* v);
bool get_u32(Cursor& c, std::uint32_t* v);
bool get_u64(Cursor& c, std::uint64_t* v);
bool get_string(Cursor& c, std::string* s);

// --- crash-safe file replacement --------------------------------------------

// Reads a whole file; returns false if it does not exist or cannot be
// read (errno message in *error when provided).
bool read_file(const std::string& path, std::string* contents, std::string* error);

// Writes `contents` to `path` crash-safely: write to `path + ".tmp"`,
// fsync the file, rename(2) over `path`, then fsync the parent directory
// so the rename itself is durable. A crash at any point leaves either the
// old complete file or the new complete file, never a mix.
bool atomic_write_file(const std::string& path, std::string_view contents, std::string* error);

}  // namespace agenp::store
