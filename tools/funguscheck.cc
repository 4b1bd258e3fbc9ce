// funguscheck — fsck for FungusDB files on disk.
//
//   funguscheck snapshot <file>              audit a snapshot: load it and
//                                            run the full invariant checker
//   funguscheck journal <file>               audit a journal: count intact
//                                            entries, report a torn tail
//   funguscheck replay <snapshot> <journal>  verify that replaying the
//                                            journal reproduces the snapshot
//   funguscheck corrupt <file> <kind> <n>    damage a file on purpose;
//                                            kind: truncate | flip | garbage
//   funguscheck mkcorpus <dir>               write fuzz seed corpora under
//                                            <dir>/{query,journal,csv,frame,
//                                            snapshot}
//
// Exits 0 when the audited files are clean, 1 on any violation or torn
// tail, 2 on usage errors or unreadable files.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "fungusdb/database.h"
#include "fungusdb/fungi.h"
#include "fungusdb/persist.h"
#include "persist/fsck.h"
#include "server/wire_format.h"

namespace fungusdb {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: funguscheck snapshot <file>\n"
               "       funguscheck journal <file>\n"
               "       funguscheck replay <snapshot> <journal>\n"
               "       funguscheck corrupt <file> truncate|flip|garbage <n>\n"
               "       funguscheck mkcorpus <dir>\n");
  return 2;
}

int CheckSnapshot(const std::string& path) {
  Result<SnapshotAudit> audit = AuditSnapshotFile(path);
  if (!audit.ok()) {
    std::fprintf(stderr, "funguscheck: %s\n",
                 audit.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", audit.value().ToString().c_str());
  return audit.value().fsck.ok() ? 0 : 1;
}

int CheckJournal(const std::string& path) {
  Result<JournalAudit> audit = AuditJournalFile(path);
  if (!audit.ok()) {
    std::fprintf(stderr, "funguscheck: %s\n",
                 audit.status().ToString().c_str());
    return 2;
  }
  std::printf("%s", audit.value().ToString().c_str());
  return audit.value().truncated ? 1 : 0;
}

int CheckReplay(const std::string& snapshot_path,
                const std::string& journal_path) {
  Result<verify::Report> report =
      AuditReplayEquivalence(snapshot_path, journal_path);
  if (!report.ok()) {
    std::fprintf(stderr, "funguscheck: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report.value().ToString().c_str());
  return report.value().ok() ? 0 : 1;
}

int Corrupt(const std::string& path, const std::string& kind_name,
            const std::string& param_str) {
  FileCorruption kind;
  if (kind_name == "truncate") {
    kind = FileCorruption::kTruncateTail;
  } else if (kind_name == "flip") {
    kind = FileCorruption::kFlipByte;
  } else if (kind_name == "garbage") {
    kind = FileCorruption::kAppendGarbage;
  } else {
    return Usage();
  }
  char* end = nullptr;
  const uint64_t param = std::strtoull(param_str.c_str(), &end, 10);
  if (end == param_str.c_str() || *end != '\0') return Usage();
  Status status = SeedFileCorruption(path, kind, param);
  if (!status.ok()) {
    std::fprintf(stderr, "funguscheck: %s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("corrupted %s (%s %llu)\n", path.c_str(), kind_name.c_str(),
              static_cast<unsigned long long>(param));
  return 0;
}

Status WriteFile(const std::filesystem::path& path,
                 const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path.string());
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::Internal("short write to " + path.string());
  return Status::OK();
}

Status ReadFile(const std::filesystem::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path.string());
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

/// Seed corpora for the fuzz harnesses: syntactically interesting SQL,
/// a real journal produced through the journal writer, small CSV
/// documents covering quoting and type edge cases, wire frames, and a
/// snapshot with frozen string segments.
Status MakeCorpus(const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path root(dir);
  std::error_code ec;
  for (const char* sub : {"query", "journal", "csv", "frame", "snapshot"}) {
    fs::create_directories(root / sub, ec);
    if (ec) return Status::Internal("cannot create " + (root / sub).string());
  }

  const char* queries[] = {
      "SELECT count(*) FROM t",
      "SELECT a, b FROM t WHERE __freshness < 0.25 LIMIT 10",
      "CONSUME SELECT * FROM t WHERE a >= 3 AND b != 'x'",
      "SELECT avg(a) AS m, min(b) FROM t GROUP BY c ORDER BY m DESC",
      "SELECT * FROM t WHERE ts > 100 OR NOT (a = 1)",
      "COOK histogram(a) AS h FROM t",
  };
  int i = 0;
  for (const char* q : queries) {
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "query" / ("q" + std::to_string(i++) + ".sql"),
                  q));
  }

  // A genuine journal, produced through the writer so the frames carry
  // correct checksums — the fuzzer mutates from a valid starting point.
  const fs::path journal_path = root / "journal" / "seed.journal";
  fs::remove(journal_path, ec);
  {
    FUNGUSDB_ASSIGN_OR_RETURN(std::unique_ptr<JournaledDatabase> db,
                              JournaledDatabase::Open(
                                  DatabaseOptions{}, journal_path.string()));
    Schema schema = Schema::Make({{"a", DataType::kInt64, false},
                                  {"b", DataType::kString, true}})
                        .value();
    FUNGUSDB_RETURN_IF_ERROR(
        db->CreateTable("t", schema).status());
    FUNGUSDB_RETURN_IF_ERROR(
        db->Insert("t", {Value::Int64(1), Value::String("one")}).status());
    FUNGUSDB_RETURN_IF_ERROR(
        db->Insert("t", {Value::Int64(2), Value::Null()}).status());
    FUNGUSDB_RETURN_IF_ERROR(db->AdvanceTime(3600).status());
    FUNGUSDB_RETURN_IF_ERROR(
        db->ExecuteSql("CONSUME SELECT * FROM t WHERE a = 1").status());
    FUNGUSDB_RETURN_IF_ERROR(db->Sync());
  }
  // Also seed a truncated variant so the torn-tail path is in-corpus.
  std::string journal_bytes;
  FUNGUSDB_RETURN_IF_ERROR(ReadFile(journal_path, &journal_bytes));
  FUNGUSDB_RETURN_IF_ERROR(
      WriteFile(root / "journal" / "torn.journal",
                journal_bytes.substr(0, journal_bytes.size() / 2)));

  const char* csvs[] = {
      "a,b\n1,one\n2,two\n",
      "a,b\n1,\"quoted, comma\"\n2,\"embedded \"\"quote\"\"\"\n",
      "a,b\n-9223372036854775808,\n",
      "a,b\n1,unterminated \"quote\n",
  };
  i = 0;
  for (const char* c : csvs) {
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "csv" / ("c" + std::to_string(i++) + ".csv"), c));
  }

  // Wire-protocol seeds for fuzz_frame: genuine payloads produced by
  // the real codecs, so mutation starts from the valid region.
  {
    server::StatementRequest request;
    request.request_id = 7;
    request.deadline_micros = 250000;
    request.statements = {"SELECT count(*) FROM t", "\\health"};
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "frame" / "request.bin",
                  server::EncodeStatementRequest(request)));

    server::StatementResponse response;
    response.request_id = 7;
    ResultSet rs;
    rs.column_names = {"n"};
    rs.rows.push_back({Value::Int64(42)});
    rs.stats.rows_scanned = 42;
    response.results.push_back(std::move(rs));
    response.results.push_back(
        Status::TableNotFound("no table named 't'"));
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "frame" / "response.bin",
                  server::EncodeStatementResponse(response)));

    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "frame" / "framed.bin",
                  server::EncodeFrame(
                      server::FrameType::kStatementRequest,
                      server::EncodeStatementRequest(request))));

    // The two large answers the write and read paths send: a write
    // batch's 500 row ids, and a 2,000-row, two-column projection.
    server::ResponseEncoder acks(8, 500);
    for (int r = 0; r < 500; ++r) acks.AddInt64Answer(kRowIdColumn, r);
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "frame" / "acks.bin", acks.Finish()));

    ResultSet projection;
    projection.column_names = {"sensor", "value"};
    for (int r = 0; r < 2000; ++r) {
      projection.rows.push_back(
          {Value::Int64(r % 97), Value::Float64(r * 0.25)});
    }
    projection.stats.rows_scanned = 200000;
    projection.stats.rows_matched = 2000;
    server::ResponseEncoder projected(9, 1);
    projected.Add(projection);
    FUNGUSDB_RETURN_IF_ERROR(
        WriteFile(root / "frame" / "projection.bin", projected.Finish()));
  }
  // Snapshot seeds for fuzz_snapshot: a database whose freeze policy
  // has fired, so the file carries frozen string segments (dictionary +
  // RLE codes, nulls, "") beside a plain tail chunk, and one frozen
  // block on its own for the harness's direct block-decoder pass.
  {
    Database db;
    TableOptions options;
    options.rows_per_segment = 8;
    options.freeze_after_idle_ticks = 1;
    Schema schema = Schema::Make({{"k", DataType::kInt64, false},
                                  {"s", DataType::kString, true},
                                  {"v", DataType::kFloat64, false}})
                        .value();
    FUNGUSDB_RETURN_IF_ERROR(db.CreateTable("t", schema, options).status());
    const char* names[] = {"north", "", "south", "it's"};
    for (int r = 0; r < 36; ++r) {
      const Value s = r % 5 == 2 ? Value::Null() : Value::String(names[r % 4]);
      FUNGUSDB_RETURN_IF_ERROR(
          db.Insert("t", {Value::Int64(r), s, Value::Float64(r * 0.5)})
              .status());
    }
    FUNGUSDB_RETURN_IF_ERROR(
        db.AttachFungus("t", std::make_unique<RetentionFungus>(1000 * kHour),
                        kHour)
            .status());
    FUNGUSDB_RETURN_IF_ERROR(db.AdvanceTime(2 * kHour).status());
    BufferWriter snapshot;
    SerializeDatabase(db, snapshot);
    FUNGUSDB_RETURN_IF_ERROR(WriteFile(root / "snapshot" / "frozen.snap",
                                       snapshot.buffer()));
    FUNGUSDB_ASSIGN_OR_RETURN(SnapshotBlockIndex blocks,
                              IndexSnapshotBlocks(snapshot.buffer()));
    if (blocks.empty()) {
      return Status::Internal("snapshot seed holds no frozen block");
    }
    FUNGUSDB_RETURN_IF_ERROR(WriteFile(root / "snapshot" / "block.bin",
                                       blocks.begin()->second.payload));
  }
  std::printf(
      "wrote seed corpora under %s/{query,journal,csv,frame,snapshot}\n",
      dir.c_str());
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "snapshot" && argc == 3) return CheckSnapshot(argv[2]);
  if (cmd == "journal" && argc == 3) return CheckJournal(argv[2]);
  if (cmd == "replay" && argc == 4) return CheckReplay(argv[2], argv[3]);
  if (cmd == "corrupt" && argc == 5) {
    return Corrupt(argv[2], argv[3], argv[4]);
  }
  if (cmd == "mkcorpus" && argc == 3) {
    Status status = MakeCorpus(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "funguscheck: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace fungusdb

int main(int argc, char** argv) { return fungusdb::Main(argc, argv); }
