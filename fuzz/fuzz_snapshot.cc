// Fuzz target: snapshot decoding. Arbitrary bytes go through the same
// path `\load` and crash recovery use (DeserializeDatabase: header,
// schemas, plain row chunks, CRC-checked frozen blocks, replay into a
// fresh database), and — because a mutated frozen block almost never
// keeps its CRC — straight through the frozen-block decoder as well.
// Malformed input must surface as a Status error, never as a crash; a
// database that loads must re-serialize and load again, and a block
// that decodes must re-encode to a block with the same checksum.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/buffer_io.h"
#include "core/database.h"
#include "persist/snapshot.h"
#include "storage/encode/frozen.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  fungusdb::BufferReader snapshot(bytes);
  fungusdb::Result<std::unique_ptr<fungusdb::Database>> db =
      fungusdb::DeserializeDatabase(snapshot);
  if (db.ok()) {
    fungusdb::BufferWriter again;
    fungusdb::SerializeDatabase(*db.value(), again);
    fungusdb::BufferReader reread(again.buffer());
    if (!fungusdb::DeserializeDatabase(reread).ok()) std::abort();
  }

  fungusdb::BufferReader block(bytes);
  fungusdb::Result<fungusdb::encode::FrozenSegment> fz =
      fungusdb::encode::FrozenSegment::Deserialize(block);
  if (fz.ok()) {
    fungusdb::BufferWriter encoded;
    fz.value().Serialize(encoded);
    fungusdb::BufferReader reread(encoded.buffer());
    fungusdb::Result<fungusdb::encode::FrozenSegment> again =
        fungusdb::encode::FrozenSegment::Deserialize(reread);
    if (!again.ok() || again.value().checksum != fz.value().checksum) {
      std::abort();
    }
  }
  return 0;
}
