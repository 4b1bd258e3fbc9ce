#ifndef FUNGUSDB_INCLUDE_FUNGUSDB_DATABASE_H_
#define FUNGUSDB_INCLUDE_FUNGUSDB_DATABASE_H_

/// Public surface: fungusdb::Database — tables, fungi on the periodic
/// clock, queries, cooking, verification — plus Session for concurrent
/// reads and the meta-command registry. Thin re-export over src/ (see
/// status.h for the rationale).

#include "core/database.h"
#include "core/meta_commands.h"
#include "core/session.h"
#include "fungusdb/result.h"
#include "fungusdb/table_handle.h"

#endif  // FUNGUSDB_INCLUDE_FUNGUSDB_DATABASE_H_
