// Persistence subsystem (DESIGN.md §11): record framing + CRC, snapshot
// encode/decode, and the StateStore lifecycle — including the corruption
// shapes a crash or a bad copy leaves behind (torn tails, half-written
// frames), the refusal paths (another format version, missing footer),
// and a seeded mutation fuzz of the decoder through a router restore.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "srv/loadgen.hpp"
#include "srv/router.hpp"
#include "store/framing.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"

namespace agenp::store {
namespace {

// A fresh private directory per test, removed (with its known files) on
// teardown.
class TempDir {
public:
    TempDir() {
        char tmpl[] = "/tmp/agenp_test_store.XXXXXX";
        char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        if (made != nullptr) path_ = made;
    }
    ~TempDir() {
        if (path_.empty()) return;
        for (const char* name : {"snapshot.agenp", "snapshot.agenp.tmp", "file"}) {
            std::remove((path_ + "/" + name).c_str());
        }
        ::rmdir(path_.c_str());
    }
    [[nodiscard]] const std::string& path() const { return path_; }
    [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

std::string slurp(const std::string& path) {
    std::string contents;
    EXPECT_TRUE(read_file(path, &contents, nullptr)) << path;
    return contents;
}

void dump(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

SnapshotData sample_snapshot() {
    SnapshotData data;
    data.model_version = 3;
    data.model_text = "request -> \"do\" task\ntask -> \"patrol\"\n";
    data.model_note = "learned from 12 examples";
    data.repo_version = 3;
    data.repo_truncated = true;
    data.created_unix_s = 1754600000;
    data.policies.push_back({"do patrol", "prep", 3});
    data.policies.push_back({"do survey", "operator", 2});
    return data;
}

// A snapshot whose header claims format `format`, followed by `records`:
// what a writer of another format version would have left on disk.
std::string forged_snapshot(std::uint32_t format, const std::vector<std::string>& records) {
    std::string header;
    put_u8(header, 1);  // header tag
    header.append(kSnapshotMagic);
    put_u32(header, format);
    put_u64(header, 0);  // model version
    put_string(header, "");
    put_string(header, "");
    put_u64(header, 0);  // repository version
    put_u8(header, 0);
    put_u64(header, 1754600000);
    std::string bytes;
    append_record(bytes, header);
    for (const std::string& record : records) append_record(bytes, record);
    return bytes;
}

// --- framing ----------------------------------------------------------------

TEST(Framing, Crc32MatchesKnownVector) {
    // The IEEE check value every CRC-32 implementation must reproduce.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Framing, RecordsRoundTrip) {
    std::string buffer;
    append_record(buffer, "first");
    append_record(buffer, "");
    append_record(buffer, std::string(1000, 'x'));

    std::vector<std::string> payloads;
    std::size_t valid = read_records(buffer, &payloads);
    EXPECT_EQ(valid, buffer.size());
    ASSERT_EQ(payloads.size(), 3u);
    EXPECT_EQ(payloads[0], "first");
    EXPECT_EQ(payloads[1], "");
    EXPECT_EQ(payloads[2], std::string(1000, 'x'));
}

TEST(Framing, TornTailKeepsValidPrefix) {
    std::string buffer;
    append_record(buffer, "alpha");
    append_record(buffer, "beta");
    std::size_t two_records = buffer.size();
    append_record(buffer, "gamma");
    // A writer killed mid-append leaves part of the last frame.
    buffer.resize(two_records + 5);

    std::vector<std::string> payloads;
    std::size_t valid = read_records(buffer, &payloads);
    EXPECT_EQ(valid, two_records);
    ASSERT_EQ(payloads.size(), 2u);
    EXPECT_EQ(payloads[1], "beta");
}

TEST(Framing, CorruptCrcDiscardsRecordAndSuffix) {
    std::string buffer;
    append_record(buffer, "alpha");
    std::size_t one_record = buffer.size();
    append_record(buffer, "beta");
    append_record(buffer, "gamma");
    // Flip one payload byte inside "beta": its CRC no longer matches, and
    // the reader must not resynchronize onto "gamma" behind it.
    buffer[one_record + 8] ^= 0x01;

    std::vector<std::string> payloads;
    std::size_t valid = read_records(buffer, &payloads);
    EXPECT_EQ(valid, one_record);
    ASSERT_EQ(payloads.size(), 1u);
    EXPECT_EQ(payloads[0], "alpha");
}

TEST(Framing, OversizedLengthFieldIsInvalidNotAllocated) {
    std::string buffer;
    put_u32(buffer, kMaxRecordPayload + 1);
    put_u32(buffer, 0);
    buffer += "junk";
    std::vector<std::string> payloads;
    EXPECT_EQ(read_records(buffer, &payloads), 0u);
    EXPECT_TRUE(payloads.empty());
}

TEST(Framing, CursorPrimitivesRejectTruncation) {
    std::string buffer;
    put_u8(buffer, 7);
    put_u32(buffer, 0xDEADBEEF);
    put_u64(buffer, 1ull << 40);
    put_string(buffer, "hello");

    Cursor cursor{buffer};
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::string s;
    EXPECT_TRUE(get_u8(cursor, &u8));
    EXPECT_TRUE(get_u32(cursor, &u32));
    EXPECT_TRUE(get_u64(cursor, &u64));
    EXPECT_TRUE(get_string(cursor, &s));
    EXPECT_EQ(u8, 7u);
    EXPECT_EQ(u32, 0xDEADBEEFu);
    EXPECT_EQ(u64, 1ull << 40);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(cursor.done());

    Cursor truncated{std::string_view(buffer).substr(0, buffer.size() - 3)};
    EXPECT_TRUE(get_u8(truncated, &u8));
    EXPECT_TRUE(get_u32(truncated, &u32));
    EXPECT_TRUE(get_u64(truncated, &u64));
    EXPECT_FALSE(get_string(truncated, &s));
    EXPECT_EQ(s, "hello");  // outputs untouched on failure
}

TEST(Framing, AtomicWriteFileReplacesWholeFile) {
    TempDir dir;
    std::string path = dir.file("file");
    std::string error;
    ASSERT_TRUE(atomic_write_file(path, "one", &error)) << error;
    EXPECT_EQ(slurp(path), "one");
    ASSERT_TRUE(atomic_write_file(path, "two two", &error)) << error;
    EXPECT_EQ(slurp(path), "two two");
    // The transient .tmp never survives a successful write.
    std::string ignored;
    EXPECT_FALSE(read_file(path + ".tmp", &ignored, nullptr));
}

// --- snapshot ---------------------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
    SnapshotData data = sample_snapshot();
    std::string bytes = encode_snapshot(data);

    SnapshotData out;
    std::string error;
    ASSERT_TRUE(decode_snapshot(bytes, &out, &error)) << error;
    EXPECT_EQ(out.model_version, data.model_version);
    EXPECT_EQ(out.model_text, data.model_text);
    EXPECT_EQ(out.model_note, data.model_note);
    EXPECT_EQ(out.repo_version, data.repo_version);
    EXPECT_EQ(out.repo_truncated, data.repo_truncated);
    EXPECT_EQ(out.created_unix_s, data.created_unix_s);
    ASSERT_EQ(out.policies.size(), 2u);
    EXPECT_EQ(out.policies[0].text, "do patrol");
    EXPECT_EQ(out.policies[1].source, "operator");
    EXPECT_EQ(out.policies[1].version, 2u);
}

TEST(Snapshot, NewerFormatVersionIsRefused) {
    // Forge a header one format version ahead: an older binary must refuse
    // the whole file rather than misread it.
    std::string bytes = forged_snapshot(kSnapshotFormatVersion + 1, {});

    SnapshotData out;
    std::string error;
    EXPECT_FALSE(decode_snapshot(bytes, &out, &error));
    const std::string expected = "format version " + std::to_string(kSnapshotFormatVersion + 1) +
                                 " is not supported (this build reads version " +
                                 std::to_string(kSnapshotFormatVersion) + ")";
    EXPECT_NE(error.find(expected), std::string::npos) << error;
}

TEST(Snapshot, WrongMagicIsRefused) {
    SnapshotData out;
    std::string error;
    std::string bytes;
    append_record(bytes, "\x01not a snapshot");
    EXPECT_FALSE(decode_snapshot(bytes, &out, &error));
    EXPECT_FALSE(decode_snapshot("", &out, &error));
}

TEST(Snapshot, MissingFooterRejectsWholeFile) {
    std::string bytes = encode_snapshot(sample_snapshot());
    // Drop the footer record: walk the frames and keep all but the last.
    std::vector<std::string> payloads;
    ASSERT_EQ(read_records(bytes, &payloads), bytes.size());
    ASSERT_GE(payloads.size(), 2u);
    std::string truncated;
    for (std::size_t i = 0; i + 1 < payloads.size(); ++i) append_record(truncated, payloads[i]);

    SnapshotData out;
    std::string error;
    EXPECT_FALSE(decode_snapshot(truncated, &out, &error));
    EXPECT_NE(error.find("footer"), std::string::npos) << error;
}

TEST(Snapshot, FooterCountMismatchIsRefused) {
    SnapshotData data = sample_snapshot();
    std::string bytes = encode_snapshot(data);
    std::vector<std::string> payloads;
    ASSERT_EQ(read_records(bytes, &payloads), bytes.size());
    // Drop one policy record but keep the footer: counts no longer match.
    std::string tampered;
    bool dropped = false;
    for (const auto& payload : payloads) {
        if (!dropped && !payload.empty() && payload[0] == 2) {
            dropped = true;
            continue;
        }
        append_record(tampered, payload);
    }
    ASSERT_TRUE(dropped);
    SnapshotData out;
    std::string error;
    EXPECT_FALSE(decode_snapshot(tampered, &out, &error));
}

// --- StateStore -------------------------------------------------------------

TEST(StateStoreTest, CreatesPrivateDirectoryAndFiles) {
    TempDir dir;
    std::string state_dir = dir.file("state");
    {
        StateStore store({state_dir});
        std::string error;
        ASSERT_TRUE(store.save_snapshot(sample_snapshot(), &error)) << error;
    }
    struct stat st {};
    ASSERT_EQ(::stat(state_dir.c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777, 0700u) << "state dir must be private: full request text";
    ASSERT_EQ(::stat((state_dir + "/snapshot.agenp").c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777, 0600u);
    // Only the snapshot: the probe the constructor writes is gone.
    std::string ignored;
    EXPECT_FALSE(read_file(state_dir + "/snapshot.agenp.tmp", &ignored, nullptr));
    std::remove((state_dir + "/snapshot.agenp").c_str());
    ::rmdir(state_dir.c_str());
}

TEST(StateStoreTest, ThrowsWhenTheDirectoryCannotBeCreatedOrWritten) {
    TempDir dir;
    // No parent to create it in.
    EXPECT_THROW(StateStore({dir.file("missing/state")}), std::runtime_error);
    // A file where the directory should be.
    dump(dir.file("file"), "not a directory");
    EXPECT_THROW(StateStore({dir.file("file")}), std::runtime_error);
    // A directory without write permission (root writes anywhere).
    if (::geteuid() != 0) {
        std::string read_only = dir.file("state");
        ASSERT_EQ(::mkdir(read_only.c_str(), 0500), 0);
        EXPECT_THROW(StateStore({read_only}), std::runtime_error);
        ::rmdir(read_only.c_str());
    }
}

TEST(StateStoreTest, SnapshotRoundTripsThroughTheDirectory) {
    TempDir dir;
    {
        StateStore store(StoreOptions{dir.path()});
        std::string error;
        ASSERT_TRUE(store.save_snapshot(sample_snapshot(), &error)) << error;
        EXPECT_EQ(store.status().snapshots_written, 1u);
        EXPECT_EQ(store.status().snapshot_policies, 2u);
    }
    StateStore store(StoreOptions{dir.path()});
    RestoreResult result = store.restore();
    EXPECT_TRUE(result.snapshot_loaded);
    EXPECT_TRUE(result.warning.empty()) << result.warning;
    EXPECT_EQ(result.data.model_version, 3u);
    EXPECT_EQ(result.data.model_note, "learned from 12 examples");
    ASSERT_EQ(result.data.policies.size(), 2u);
    EXPECT_EQ(result.data.policies[0].text, "do patrol");
    StoreStatus status = store.status();
    EXPECT_TRUE(status.restored);
    EXPECT_EQ(status.snapshot_policies, 2u);
    EXPECT_GT(status.snapshot_bytes, 0u);
}

TEST(StateStoreTest, CorruptSnapshotFallsBackToWalOnly) {
    TempDir dir;
    {
        StateStore store(StoreOptions{dir.path()});
        std::string error;
        ASSERT_TRUE(store.save_snapshot(sample_snapshot(), &error)) << error;
    }
    // Corrupt the snapshot body: restore must refuse all of it with a
    // warning, so the server starts from its grammar file, as if cold.
    std::string snapshot_path = dir.file("snapshot.agenp");
    std::string bytes = slurp(snapshot_path);
    bytes[bytes.size() / 2] ^= 0x01;
    dump(snapshot_path, bytes);

    StateStore store(StoreOptions{dir.path()});
    RestoreResult result = store.restore();
    EXPECT_FALSE(result.snapshot_loaded);
    EXPECT_NE(result.warning.find("ignoring snapshot"), std::string::npos) << result.warning;
    EXPECT_EQ(result.data.model_version, 0u);
    EXPECT_TRUE(result.data.model_text.empty());
    EXPECT_TRUE(result.data.policies.empty());
    EXPECT_FALSE(store.status().restored);
}

TEST(StateStoreTest, FormatOneSnapshotIsIgnoredWithAWarning) {
    // What the cache-persisting build left behind: a format-1 snapshot
    // with a learned model, a policy and a cache record. None of it is
    // read; the server starts from its grammar file.
    TempDir dir;
    std::string policy;
    put_u8(policy, 2);
    put_string(policy, "do patrol");
    put_string(policy, "prep");
    put_u64(policy, 1);
    std::string entry;
    put_u8(entry, 3);
    put_string(entry, std::string("do patrol\x1f") + "maxloa(3).");
    put_u64(entry, 0);
    put_u8(entry, 1);
    std::string footer;
    put_u8(footer, 4);
    put_u64(footer, 1);
    put_u64(footer, 1);
    dump(dir.file("snapshot.agenp"), forged_snapshot(1, {policy, entry, footer}));

    StateStore store(StoreOptions{dir.path()});
    RestoreResult result = store.restore();
    EXPECT_FALSE(result.snapshot_loaded);
    EXPECT_NE(result.warning.find("ignoring snapshot: snapshot format version 1 is not supported"),
              std::string::npos)
        << result.warning;
    EXPECT_TRUE(result.data.policies.empty());
    EXPECT_EQ(result.data.model_version, 0u);
    EXPECT_FALSE(store.status().restored);

    // Through a router: nothing restored, the initial model serves.
    srv::RouterOptions options;
    options.service.threads = 1;
    srv::AmsRouter router(
        [] {
            return std::make_unique<framework::AutonomousManagedSystem>(srv::make_demo_ams(4, 0));
        },
        options);
    srv::StateRestoreReport report = router.restore_state(result.data);
    EXPECT_FALSE(report.model_restored);
    EXPECT_EQ(report.policies_restored, 0u);
    EXPECT_EQ(report.model_version, 0u);
}

TEST(StateStoreTest, EmptyDirRestoreIsCleanColdStart) {
    TempDir dir;
    StateStore store(StoreOptions{dir.path()});
    RestoreResult result = store.restore();
    EXPECT_FALSE(result.snapshot_loaded);
    EXPECT_TRUE(result.data.policies.empty());
    EXPECT_TRUE(result.warning.empty());
    EXPECT_FALSE(store.status().restored);
}

// --- mutation fuzz ----------------------------------------------------------
//
// Snapshot bytes come back from disk, where a crash, a bad copy or a
// stray write can damage them in any way. Fixed mt19937_64 seeds mutate
// encoded snapshots, both raw and re-framed with fresh CRCs so the record
// decoder sees damaged payloads and not only the CRC check.

void put_u32_at(std::string& bytes, std::size_t pos, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) bytes[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}

std::uint32_t get_u32_at(const std::string& bytes, std::size_t pos) {
    Cursor c{bytes, pos};
    std::uint32_t v = 0;
    EXPECT_TRUE(get_u32(c, &v));
    return v;
}

// A length field moved a little off its value, or far out of range.
std::uint32_t edited_length(std::uint32_t length, std::mt19937_64& rng) {
    constexpr std::uint32_t kFar[] = {0, 1, kMaxRecordPayload, kMaxRecordPayload + 1, 0xFFFFFFFFu};
    switch (rng() % 3) {
        case 0: return length + 1 + static_cast<std::uint32_t>(rng() % 4);
        case 1: return length - 1 - static_cast<std::uint32_t>(rng() % 4);  // may wrap
        default: return kFar[rng() % std::size(kFar)];
    }
}

// One raw edit: a bit flip, an insert, a delete or a truncation.
void edit_bytes(std::string& bytes, std::mt19937_64& rng) {
    auto pick = [&](std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng() % n); };
    switch (rng() % 4) {
        case 0:
            if (!bytes.empty()) bytes[pick(bytes.size())] ^= static_cast<char>(1u << (rng() % 8));
            break;
        case 1:
            bytes.insert(pick(bytes.size() + 1), 1 + rng() % 8, static_cast<char>(rng()));
            break;
        case 2:
            if (!bytes.empty()) bytes.erase(pick(bytes.size()), 1 + rng() % 8);
            break;
        default:
            bytes.resize(pick(bytes.size() + 1));
            break;
    }
}

std::string reframe(const std::vector<std::string>& payloads) {
    std::string out;
    for (const std::string& payload : payloads) append_record(out, payload);
    return out;
}

// One mutant of a clean framed file.
std::string mutate(const std::string& base, std::mt19937_64& rng) {
    std::vector<std::string> payloads;
    EXPECT_EQ(read_records(base, &payloads), base.size());
    std::string out = base;
    std::string& payload = payloads[rng() % payloads.size()];
    switch (rng() % 5) {
        case 0:  // raw bytes: the CRC catches these
            for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) edit_bytes(out, rng);
            return out;
        case 1: {  // a frame's length field
            std::vector<std::size_t> starts;
            for (std::size_t at = 0; at < base.size(); at += 8 + get_u32_at(base, at)) {
                starts.push_back(at);
            }
            std::size_t at = starts[rng() % starts.size()];
            put_u32_at(out, at, edited_length(get_u32_at(out, at), rng));
            return out;
        }
        case 2:  // a payload's bytes, under a fresh CRC
            edit_bytes(payload, rng);
            return reframe(payloads);
        case 3:  // a length inside a payload, under a fresh CRC
            if (payload.size() >= 4) {
                std::size_t at = rng() % (payload.size() - 3);
                put_u32_at(payload, at, edited_length(get_u32_at(payload, at), rng));
            }
            return reframe(payloads);
        default: {  // whole records dropped, repeated or swapped
            std::size_t i = rng() % payloads.size();
            std::size_t j = rng() % payloads.size();
            auto at = payloads.begin() + static_cast<std::ptrdiff_t>(i);
            switch (rng() % 3) {
                case 0:
                    payloads.erase(at);
                    break;
                case 1:
                    payloads.insert(at, std::string(payloads[j]));
                    break;
                default:
                    std::swap(payloads[i], payloads[j]);
                    break;
            }
            return reframe(payloads);
        }
    }
}

// decode_snapshot refuses with a reason, or returns exactly the records
// its footer counts. Returns whether it decoded.
bool check_snapshot(const std::string& bytes) {
    SnapshotData data;
    std::string error;
    bool decoded = false;
    EXPECT_NO_THROW(decoded = decode_snapshot(bytes, &data, &error));
    if (!decoded) {
        EXPECT_FALSE(error.empty());
        return false;
    }
    std::vector<std::string> payloads;
    read_records(bytes, &payloads);
    Cursor footer{payloads.back()};
    std::uint8_t tag = 0;
    std::uint64_t policies = 0;
    EXPECT_TRUE(get_u8(footer, &tag) && get_u64(footer, &policies));
    EXPECT_EQ(policies, data.policies.size());
    return true;
}

// Models a mutant carried, by what restore_state did with them.
struct ModelCounts {
    int restored = 0;
    int refused = 0;
};

// A restart from the damaged state never throws, and a model that
// does not parse is reported and left unserved.
void check_restore(const std::string& dir, srv::AmsRouter& router, ModelCounts& models) {
    RestoreResult restored;
    srv::StateRestoreReport report;
    EXPECT_NO_THROW({
        StateStore store(StoreOptions{dir});
        restored = store.restore();
        report = router.restore_state(restored.data);
    });
    const SnapshotData& data = restored.data;
    if (data.model_version == 0 || data.model_text.empty()) return;
    bool parses = true;
    try {
        (void)asg::AnswerSetGrammar::parse(data.model_text);
    } catch (const std::exception&) {
        parses = false;
    }
    EXPECT_EQ(report.model_restored, parses);
    if (!parses) {
        EXPECT_NE(report.warning.find("unparseable"), std::string::npos) << report.warning;
    }
    ++(report.model_restored ? models.restored : models.refused);
}

TEST(StateStoreTest, MutatedSnapshotsAndWalsNeverBreakRestore) {
    TempDir dir;
    const std::string snapshot_path = dir.file("snapshot.agenp");

    // Snapshots: the sample, an empty one, one whose model parses, and
    // one whose model text was cut short.
    SnapshotData learned = sample_snapshot();
    learned.model_text = srv::demo_grammar(4, 0).to_string();
    for (int i = 0; i < 8; ++i) {
        learned.policies.push_back({"do task_" + std::to_string(i), "prep", 3});
    }
    SnapshotData cut = learned;
    cut.model_text.resize(cut.model_text.size() / 2);
    const std::vector<std::string> snapshots = {
        encode_snapshot(sample_snapshot()), encode_snapshot(SnapshotData{}),
        encode_snapshot(learned), encode_snapshot(cut)};

    srv::RouterOptions options;
    options.service.threads = 1;
    srv::AmsRouter router(
        [] {
            return std::make_unique<framework::AutonomousManagedSystem>(srv::make_demo_ams(4, 0));
        },
        options);

    // 16 fixed seeds: the same mutants on every run. A restore reads a
    // file, so restore mutants cost a write each and get fewer draws.
    constexpr std::uint64_t kSeeds = 16;
    constexpr int kSnapshotMutants = 1000;
    constexpr int kRestoreMutants = 25;
    int decoded = 0;
    ModelCounts models;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::mt19937_64 rng(seed);
        for (int i = 0; i < kSnapshotMutants; ++i) {
            if (check_snapshot(mutate(snapshots[rng() % snapshots.size()], rng))) ++decoded;
            if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", snapshot " << i;
        }
        for (int i = 0; i < kRestoreMutants; ++i) {
            dump(snapshot_path, mutate(snapshots[rng() % snapshots.size()], rng));
            check_restore(dir.path(), router, models);
            if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", restore " << i;
        }
    }
    // Both sides of the decoder, and of the model restore, are exercised.
    EXPECT_GT(decoded, kSeeds * kSnapshotMutants / 20);
    EXPECT_LT(decoded, kSeeds * kSnapshotMutants / 2);
    EXPECT_GT(models.restored, 0);
    EXPECT_GT(models.refused, 0);
}

}  // namespace
}  // namespace agenp::store
