#include "sqlgraph/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <shared_mutex>
#include <sstream>

#include "rel/codec.h"
#include "util/crc32c.h"

namespace sqlgraph {
namespace core {

using rel::GetVarint;
using rel::PutVarint;
using rel::Row;
using util::Result;
using util::Status;

namespace {

// SQLG2: same inner encoding as SQLG1, but the header and each table are
// wrapped in a length + masked-CRC32C frame, and the file ends with a
// trailer. A truncated or bit-flipped file therefore fails with a precise
// Status instead of decoding garbage rows.
constexpr char kMagic[] = "SQLG2\n";
constexpr size_t kMagicLen = 6;
constexpr char kTrailer[] = "SQLGEND\n";
constexpr size_t kTrailerLen = 8;
constexpr size_t kSectionHeaderLen = 8;  // u32 length + u32 masked CRC

void PutU32(uint32_t v, std::string* out) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

uint32_t GetU32(const std::string& buf, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(buf[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(buf[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(buf[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(buf[offset + 3]))
             << 24;
}

/// Appends `payload` to `out` framed as length + masked CRC + bytes.
void PutSection(const std::string& payload, std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU32(util::Crc32cMask(util::Crc32c(payload)), out);
  out->append(payload);
}

/// Extracts the next framed section of `buf` into `payload`, verifying its
/// checksum. `what` names the section in error messages.
Status GetSection(const std::string& buf, size_t* offset, const char* what,
                  std::string* payload) {
  if (*offset + kSectionHeaderLen > buf.size()) {
    return Status::OutOfRange(std::string("snapshot truncated in ") + what +
                              " section header");
  }
  const uint32_t len = GetU32(buf, *offset);
  const uint32_t expected = GetU32(buf, *offset + 4);
  *offset += kSectionHeaderLen;
  if (len > buf.size() - *offset) {
    return Status::OutOfRange(std::string("snapshot truncated in ") + what +
                              " section body");
  }
  payload->assign(buf, *offset, len);
  *offset += len;
  if (util::Crc32cMask(util::Crc32c(*payload)) != expected) {
    return Status::ParseError(std::string("snapshot ") + what +
                              " section checksum mismatch");
  }
  return Status::OK();
}

const char* const kTableOrder[] = {kOpaTable, kIpaTable, kOsaTable,
                                   kIsaTable, kVaTable,  kEaTable};

// Upper bound on the adjacency color count accepted from a snapshot header;
// real stores use a handful of colors, so anything near this is corruption.
constexpr uint64_t kMaxSnapshotColors = 1 << 16;

void PutString(const std::string& s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s);
}

Status GetString(const std::string& buf, size_t* offset, std::string* out) {
  uint64_t len = 0;
  RETURN_NOT_OK(GetVarint(buf, offset, &len));
  // Overflow-safe form: *offset + len can wrap for adversarial len.
  if (len > buf.size() - *offset) {
    return Status::OutOfRange("truncated string in snapshot");
  }
  out->assign(buf, *offset, len);
  *offset += len;
  return Status::OK();
}

void PutColoredHash(const coloring::ColoredHash& hash, std::string* out) {
  PutVarint(hash.num_colors(), out);
  const auto entries = hash.Entries();
  PutVarint(entries.size(), out);
  for (const auto& [label, color] : entries) {
    PutString(label, out);
    PutVarint(color, out);
  }
}

Result<coloring::ColoredHash> GetColoredHash(const std::string& buf,
                                             size_t* offset) {
  uint64_t num_colors = 0, count = 0;
  RETURN_NOT_OK(GetVarint(buf, offset, &num_colors));
  RETURN_NOT_OK(GetVarint(buf, offset, &count));
  // Each entry occupies at least two bytes (empty-label varint + color
  // varint), so a count beyond that bound is corrupt — reject it before the
  // reserve() below turns it into a giant allocation.
  if (count > (buf.size() - *offset) / 2) {
    return Status::ParseError("snapshot colored-hash entry count corrupt");
  }
  std::vector<std::pair<std::string, size_t>> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string label;
    uint64_t color = 0;
    RETURN_NOT_OK(GetString(buf, offset, &label));
    RETURN_NOT_OK(GetVarint(buf, offset, &color));
    entries.emplace_back(std::move(label), static_cast<size_t>(color));
  }
  return coloring::ColoredHash::FromEntries(entries,
                                            static_cast<size_t>(num_colors));
}

void PutLoadStats(const LoadStats& s, std::string* out) {
  for (uint64_t v :
       {static_cast<uint64_t>(s.num_out_labels),
        static_cast<uint64_t>(s.num_in_labels),
        static_cast<uint64_t>(s.out_colors), static_cast<uint64_t>(s.in_colors),
        static_cast<uint64_t>(s.max_out_bucket),
        static_cast<uint64_t>(s.max_in_bucket),
        static_cast<uint64_t>(s.out_spill_rows),
        static_cast<uint64_t>(s.in_spill_rows),
        static_cast<uint64_t>(s.osa_rows), static_cast<uint64_t>(s.isa_rows),
        static_cast<uint64_t>(s.num_vertices),
        static_cast<uint64_t>(s.num_edges)}) {
    PutVarint(v, out);
  }
}

Status GetLoadStats(const std::string& buf, size_t* offset, LoadStats* s) {
  uint64_t v[12];
  for (auto& x : v) RETURN_NOT_OK(GetVarint(buf, offset, &x));
  s->num_out_labels = v[0];
  s->num_in_labels = v[1];
  s->out_colors = v[2];
  s->in_colors = v[3];
  s->max_out_bucket = v[4];
  s->max_in_bucket = v[5];
  s->out_spill_rows = v[6];
  s->in_spill_rows = v[7];
  s->osa_rows = v[8];
  s->isa_rows = v[9];
  s->num_vertices = v[10];
  s->num_edges = v[11];
  if (s->num_vertices > 0) {
    s->out_spill_pct = 100.0 * static_cast<double>(s->out_spill_rows) /
                       static_cast<double>(s->num_vertices);
    s->in_spill_pct = 100.0 * static_cast<double>(s->in_spill_rows) /
                      static_cast<double>(s->num_vertices);
  }
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const SqlGraphStore& store, const std::string& path) {
  // Shared-lock every table for a consistent snapshot of a live store.
  std::shared_lock<util::SharedMutex> locks[SqlGraphStore::kNumTables];
  for (int i = 0; i < SqlGraphStore::kNumTables; ++i) {
    locks[i] = std::shared_lock<util::SharedMutex>(store.table_locks_[i]);
  }

  std::string buf;
  buf.append(kMagic, kMagicLen);

  std::string section;
  PutColoredHash(store.schema_.out_hash, &section);
  PutColoredHash(store.schema_.in_hash, &section);
  PutVarint(store.schema_.out_colors, &section);
  PutVarint(store.schema_.in_colors, &section);
  PutVarint(static_cast<uint64_t>(store.next_vertex_id_), &section);
  PutVarint(static_cast<uint64_t>(store.next_edge_id_), &section);
  PutVarint(static_cast<uint64_t>(store.next_lid_ - kLidBase), &section);
  PutLoadStats(store.load_stats_, &section);
  PutSection(section, &buf);

  for (const char* name : kTableOrder) {
    const rel::Table* table = store.db_.GetTable(name);
    if (table == nullptr) return Status::Internal("snapshot: missing table");
    section.clear();
    PutString(name, &section);
    const rel::Schema& schema = table->schema();
    PutVarint(schema.num_columns(), &section);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      PutString(schema.column(c).name, &section);
      section.push_back(static_cast<char>(schema.column(c).type));
      section.push_back(schema.column(c).nullable ? 1 : 0);
    }
    PutVarint(table->NumRows(), &section);
    table->Scan(
        [&section](rel::RowId, const Row& row) { EncodeRow(row, &section); });
    PutSection(section, &buf);
  }
  buf.append(kTrailer, kTrailerLen);

  // write + fsync through a file descriptor: the checkpoint protocol prunes
  // the WAL segments this snapshot covers as soon as it is published, so the
  // bytes must be on stable storage — not merely in the page cache — before
  // the caller renames the file into place.
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " for writing: " +
                            std::strerror(errno));
  }
  const char* data = buf.data();
  size_t remaining = buf.size();
  while (remaining > 0) {
    const ssize_t w = ::write(fd, data, remaining);
    if (w < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("write to " + path + " failed: " + err);
    }
    data += w;
    remaining -= static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fsync of " + path + " failed: " + err);
  }
  if (::close(fd) != 0) {
    return Status::Internal("close of " + path + " failed: " +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<std::unique_ptr<SqlGraphStore>> OpenSnapshot(const std::string& path,
                                                    StoreConfig config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("snapshot " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string buf = ss.str();
  if (buf.size() < kMagicLen || buf.compare(0, 4, "SQLG") != 0) {
    return Status::ParseError(path + " is not a SQLGraph snapshot");
  }
  if (buf.compare(0, kMagicLen, kMagic) != 0) {
    return Status::ParseError(path + ": unsupported snapshot version (want " +
                              std::string(kMagic, kMagicLen - 1) + ")");
  }
  size_t offset = kMagicLen;

  std::string section;
  RETURN_NOT_OK(GetSection(buf, &offset, "header", &section));
  size_t pos = 0;
  auto store = std::unique_ptr<SqlGraphStore>(new SqlGraphStore(config));
  ASSIGN_OR_RETURN(store->schema_.out_hash, GetColoredHash(section, &pos));
  ASSIGN_OR_RETURN(store->schema_.in_hash, GetColoredHash(section, &pos));
  uint64_t out_colors = 0, in_colors = 0;
  RETURN_NOT_OK(GetVarint(section, &pos, &out_colors));
  RETURN_NOT_OK(GetVarint(section, &pos, &in_colors));
  // Color counts drive `% colors` arithmetic and triad column indexing all
  // over the store, so a corrupt header here would mean division by zero or
  // out-of-bounds row access later. Reject early.
  if (out_colors < 1 || in_colors < 1 || out_colors > kMaxSnapshotColors ||
      in_colors > kMaxSnapshotColors) {
    return Status::ParseError("snapshot header color count corrupt");
  }
  store->schema_.out_colors = static_cast<size_t>(out_colors);
  store->schema_.in_colors = static_cast<size_t>(in_colors);
  uint64_t next_vid = 0, next_eid = 0, lid_delta = 0;
  RETURN_NOT_OK(GetVarint(section, &pos, &next_vid));
  RETURN_NOT_OK(GetVarint(section, &pos, &next_eid));
  RETURN_NOT_OK(GetVarint(section, &pos, &lid_delta));
  store->next_vertex_id_ = static_cast<int64_t>(next_vid);
  store->next_edge_id_ = static_cast<int64_t>(next_eid);
  store->next_lid_ = kLidBase + static_cast<int64_t>(lid_delta);
  RETURN_NOT_OK(GetLoadStats(section, &pos, &store->load_stats_));
  if (pos != section.size()) {
    return Status::ParseError("trailing bytes in snapshot header section");
  }

  for (const char* expected_name : kTableOrder) {
    RETURN_NOT_OK(GetSection(buf, &offset, expected_name, &section));
    pos = 0;
    std::string name;
    RETURN_NOT_OK(GetString(section, &pos, &name));
    if (name != expected_name) {
      return Status::ParseError("snapshot table order mismatch: " + name);
    }
    uint64_t num_columns = 0;
    RETURN_NOT_OK(GetVarint(section, &pos, &num_columns));
    rel::Schema schema;
    for (uint64_t c = 0; c < num_columns; ++c) {
      std::string col_name;
      RETURN_NOT_OK(GetString(section, &pos, &col_name));
      if (pos + 2 > section.size()) {
        return Status::OutOfRange("truncated column header");
      }
      const uint8_t type_byte = static_cast<uint8_t>(section[pos]);
      if (type_byte > static_cast<uint8_t>(rel::ColumnType::kJson)) {
        return Status::ParseError("snapshot column type byte corrupt");
      }
      const auto type = static_cast<rel::ColumnType>(type_byte);
      const bool nullable = section[pos + 1] != 0;
      pos += 2;
      schema.AddColumn(std::move(col_name), type, nullable);
    }
    // Cross-check the table shape against the header's color counts: triad
    // column indexing (2 + 3c) assumes exactly these widths, and a mismatch
    // would mean out-of-bounds row access in adjacency code.
    size_t expect_cols = 0;
    if (name == kOpaTable) expect_cols = 2 + 3 * store->schema_.out_colors;
    else if (name == kIpaTable) expect_cols = 2 + 3 * store->schema_.in_colors;
    else if (name == kOsaTable || name == kIsaTable) expect_cols = 3;
    else if (name == kVaTable) expect_cols = 2;
    else expect_cols = 5;  // EA
    if (schema.num_columns() != expect_cols) {
      return Status::ParseError("snapshot table " + name +
                                " has wrong column count");
    }
    ASSIGN_OR_RETURN(rel::Table * table,
                     store->db_.CreateTable(name, schema, config.storage));
    uint64_t row_count = 0;
    RETURN_NOT_OK(GetVarint(section, &pos, &row_count));
    for (uint64_t r = 0; r < row_count; ++r) {
      Row row;
      RETURN_NOT_OK(rel::DecodeRow(section, schema.num_columns(), &pos, &row));
      RETURN_NOT_OK(table->Insert(std::move(row)).status());
    }
    if (pos != section.size()) {
      return Status::ParseError(std::string("trailing bytes in snapshot ") +
                                expected_name + " section");
    }
  }
  if (offset + kTrailerLen > buf.size() ||
      buf.compare(offset, kTrailerLen, kTrailer, kTrailerLen) != 0) {
    return Status::OutOfRange("snapshot missing EOF trailer (truncated file)");
  }
  offset += kTrailerLen;
  if (offset != buf.size()) {
    return Status::ParseError("trailing bytes in snapshot");
  }
  // Rebuild the Fig. 5 index set (plus configured attribute indexes).
  RETURN_NOT_OK(store->schema_.CreateIndexes(&store->db_, config));
  RETURN_NOT_OK(store->CompileTemplates());
  return store;
}

}  // namespace core
}  // namespace sqlgraph
