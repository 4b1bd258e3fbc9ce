#include "common/buffer_io.h"

namespace fungusdb {

Status BufferReader::error() const {
  return Status::OutOfRange("truncated: need " + std::to_string(short_of_) +
                            " bytes, have " + std::to_string(remaining()));
}

}  // namespace fungusdb
