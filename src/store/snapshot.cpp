#include "store/snapshot.hpp"

#include "store/framing.hpp"

namespace agenp::store {

namespace {

// Tag 3 was format 1's decision-cache entry; it is not reused.
enum RecordTag : std::uint8_t {
    kTagHeader = 1,
    kTagPolicy = 2,
    kTagFooter = 4,
};

std::string encode_header(const SnapshotData& data) {
    std::string p;
    put_u8(p, kTagHeader);
    p.append(kSnapshotMagic);
    put_u32(p, kSnapshotFormatVersion);
    put_u64(p, data.model_version);
    put_string(p, data.model_text);
    put_string(p, data.model_note);
    put_u64(p, data.repo_version);
    put_u8(p, data.repo_truncated ? 1 : 0);
    put_u64(p, data.created_unix_s);
    return p;
}

}  // namespace

std::string encode_snapshot(const SnapshotData& data) {
    std::string out;
    append_record(out, encode_header(data));
    std::string p;
    for (const auto& policy : data.policies) {
        p.clear();
        put_u8(p, kTagPolicy);
        put_string(p, policy.text);
        put_string(p, policy.source);
        put_u64(p, policy.version);
        append_record(out, p);
    }
    p.clear();
    put_u8(p, kTagFooter);
    put_u64(p, data.policies.size());
    append_record(out, p);
    return out;
}

bool decode_snapshot(std::string_view bytes, SnapshotData* data, std::string* error) {
    std::vector<std::string> payloads;
    std::size_t valid = read_records(bytes, &payloads);
    if (valid != bytes.size()) {
        *error = "snapshot has " + std::to_string(bytes.size() - valid) +
                 " corrupt trailing bytes";
        return false;
    }
    if (payloads.empty()) {
        *error = "snapshot is empty";
        return false;
    }

    // Header.
    {
        Cursor c{payloads.front()};
        std::uint8_t tag = 0;
        if (!get_u8(c, &tag) || tag != kTagHeader) {
            *error = "snapshot does not start with a header record";
            return false;
        }
        if (c.data.size() < c.pos + kSnapshotMagic.size() ||
            c.data.substr(c.pos, kSnapshotMagic.size()) != kSnapshotMagic) {
            *error = "snapshot magic mismatch (not an agenp snapshot)";
            return false;
        }
        c.pos += kSnapshotMagic.size();
        std::uint32_t format = 0;
        if (!get_u32(c, &format)) {
            *error = "snapshot header truncated";
            return false;
        }
        if (format != kSnapshotFormatVersion) {
            *error = "snapshot format version " + std::to_string(format) +
                     " is not supported (this build reads version " +
                     std::to_string(kSnapshotFormatVersion) + ")";
            return false;
        }
        std::uint8_t truncated = 0;
        if (!get_u64(c, &data->model_version) || !get_string(c, &data->model_text) ||
            !get_string(c, &data->model_note) || !get_u64(c, &data->repo_version) ||
            !get_u8(c, &truncated) || !get_u64(c, &data->created_unix_s)) {
            *error = "snapshot header truncated";
            return false;
        }
        data->repo_truncated = truncated != 0;
    }

    // Body + footer.
    bool saw_footer = false;
    std::uint64_t footer_policies = 0;
    for (std::size_t i = 1; i < payloads.size(); ++i) {
        Cursor c{payloads[i]};
        std::uint8_t tag = 0;
        if (!get_u8(c, &tag)) {
            *error = "snapshot record " + std::to_string(i) + " is empty";
            return false;
        }
        if (saw_footer) {
            *error = "snapshot has records after its footer";
            return false;
        }
        switch (tag) {
            case kTagPolicy: {
                PolicyRecord policy;
                if (!get_string(c, &policy.text) || !get_string(c, &policy.source) ||
                    !get_u64(c, &policy.version)) {
                    *error = "snapshot policy record " + std::to_string(i) + " truncated";
                    return false;
                }
                data->policies.push_back(std::move(policy));
                break;
            }
            case kTagFooter: {
                if (!get_u64(c, &footer_policies)) {
                    *error = "snapshot footer truncated";
                    return false;
                }
                saw_footer = true;
                break;
            }
            default:
                // The format-version check above turns away every other
                // writer, so an unknown tag here is corruption.
                *error = "snapshot record " + std::to_string(i) + " has unknown tag " +
                         std::to_string(tag);
                return false;
        }
    }
    if (!saw_footer) {
        *error = "snapshot footer missing (file truncated?)";
        return false;
    }
    if (footer_policies != data->policies.size()) {
        *error = "snapshot footer count disagrees with records read";
        return false;
    }
    return true;
}

}  // namespace agenp::store
