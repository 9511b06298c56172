// Binary row codec used by the paged row store and the snapshot format.
// Rows are serialized into page blobs; reading a row from an evicted page
// pays a real decode cost, which is the mechanism behind the
// buffer-pool/memory experiments. DecodeValue is the one value decoder:
// it leaves a JSON document as its stored compact text, so a page decode
// costs a copy per column, and json::Parse runs only for the documents a
// reader actually returns (DecodeRow, used by snapshot load, parses them
// all).

#ifndef SQLGRAPH_REL_CODEC_H_
#define SQLGRAPH_REL_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rel/schema.h"
#include "rel/value.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

/// Appends a serialized row to `out`. Format per value: 1 type tag byte,
/// then a fixed 8-byte payload for numbers, or a varint length + bytes for
/// strings/JSON (JSON is stored as compact text).
void EncodeRow(const Row& row, std::string* out);

/// Decodes the value starting at `*offset` and advances `*offset` past it.
/// A JSON document is not parsed: `*out` receives its stored compact text
/// as a string Value and `*json_text` is set, so the caller decides when to
/// pay for json::Parse.
util::Status DecodeValue(const std::string& buf, size_t* offset, Value* out,
                         bool* json_text);

/// Decodes one row (arity `num_columns`) starting at `*offset`; advances
/// `*offset` past it. JSON documents are parsed.
util::Status DecodeRow(const std::string& buf, size_t num_columns,
                       size_t* offset, Row* out);

/// Varint helpers (LEB128, unsigned).
void PutVarint(uint64_t v, std::string* out);
util::Status GetVarint(const std::string& buf, size_t* offset, uint64_t* out);

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_CODEC_H_
