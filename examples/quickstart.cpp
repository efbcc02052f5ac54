// Quickstart: create a database, a table with an index cache, and run point
// lookups that are answered straight from B+Tree free space.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "exec/database.h"

using namespace nblb;

int main() {
  // 1. Open a database (one backing file + buffer pool).
  DatabaseOptions dbo;
  dbo.path = "/tmp/nblb_quickstart.db";
  std::remove(dbo.path.c_str());
  dbo.buffer_pool_frames = 1024;
  auto db_result = Database::Open(dbo);
  if (!db_result.ok()) {
    std::fprintf(stderr, "open: %s\n", db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*db_result);

  // 2. Declare a schema. Every type has a declared width (see
  //    catalog/type.h); heap pages store only the bytes a VARCHAR uses.
  Schema schema({{"user_id", TypeId::kInt64, 0},
                 {"name", TypeId::kVarchar, 24},
                 {"karma", TypeId::kInt32, 0},
                 {"bio", TypeId::kVarchar, 200}});

  // 3. Create the table: primary key on user_id, and replicate (name, karma)
  //    into the index cache — the paper's "no bits left behind" trick: those
  //    copies live in the B+Tree leaves' free space, costing nothing.
  TableOptions topts;
  topts.key_columns = {0};
  topts.cached_columns = {1, 2};
  auto table_result = db->CreateTable("users", schema, topts);
  if (!table_result.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 table_result.status().ToString().c_str());
    return 1;
  }
  Table* users = *table_result;

  // 4. Insert some rows.
  for (int64_t id = 1; id <= 1000; ++id) {
    Row row = {Value::Int64(id), Value::Varchar("user" + std::to_string(id)),
               Value::Int32(static_cast<int32_t>(id % 500)),
               Value::Varchar("bio text for user " + std::to_string(id))};
    if (Status s = users->Insert(row); !s.ok()) {
      std::fprintf(stderr, "insert: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 5. Point lookups. The first projected lookup fetches the heap tuple and
  //    seeds the cache; repeats are answered from the index page alone.
  const std::vector<size_t> name_and_karma = {1, 2};
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto row = users->LookupProjected({Value::Int64(42)}, name_and_karma);
    if (!row.ok()) return 1;
    std::printf("lookup #%d: name=%s karma=%s\n", repeat + 1,
                (*row)[0].ToString().c_str(), (*row)[1].ToString().c_str());
  }

  // 6. Stats show where the answers came from.
  const TableStats& st = users->stats();
  std::printf("\nlookups=%llu answered_from_cache=%llu heap_fetches=%llu\n",
              static_cast<unsigned long long>(st.lookups),
              static_cast<unsigned long long>(st.answered_from_cache),
              static_cast<unsigned long long>(st.heap_fetches));

  // 7. Updates invalidate cached copies before they can be served stale.
  Row updated = {Value::Int64(42), Value::Varchar("renamed"),
                 Value::Int32(9999), Value::Varchar("new bio")};
  if (Status s = users->UpdateByKey({Value::Int64(42)}, updated); !s.ok()) {
    return 1;
  }
  auto fresh = users->LookupProjected({Value::Int64(42)}, name_and_karma);
  if (!fresh.ok()) return 1;
  std::printf("after update: name=%s karma=%s (never stale)\n",
              (*fresh)[0].ToString().c_str(), (*fresh)[1].ToString().c_str());

  std::remove(dbo.path.c_str());
  return 0;
}
