#include "exec/database.h"

namespace nblb {

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  if (options.buffer_pool_stripes > 1) {
    return Status::InvalidArgument(
        "buffer_pool_stripes > 1: the buffer pool has one CLOCK");
  }
  std::unique_ptr<Database> db(new Database(options));
  if (options.enable_latency_model) {
    db->latency_.reset(new LatencyModel(options.latency, &db->clock_));
  }
  db->disk_.reset(new DiskManager(options.path, options.page_size,
                                  db->latency_.get(), options.direct_io));
  NBLB_RETURN_NOT_OK(db->disk_->Open());
  db->bp_.reset(new BufferPool(db->disk_.get(), options.buffer_pool_frames));
  db->metrics_.reset(new MetricsRegistry());
  db->disk_->RegisterMetrics(db->metrics_.get(), "disk.");
  db->bp_->RegisterMetrics(db->metrics_.get(), "buffer_pool.");
  return db;
}

Database::~Database() {
  tables_.clear();
  metrics_.reset();  // entries point into bp_/disk_; drop them first
  bp_.reset();
  if (disk_) (void)disk_->Close();
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema,
                                     TableOptions options) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  NBLB_ASSIGN_OR_RETURN(auto table,
                        Table::Create(bp_.get(), std::move(schema), options));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> Database::AttachTable(const std::string& name, Schema schema,
                                     TableOptions options,
                                     PageId heap_first_page,
                                     PageId btree_meta_page) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  NBLB_ASSIGN_OR_RETURN(auto table,
                        Table::Attach(bp_.get(), std::move(schema), options,
                                      heap_first_page, btree_meta_page));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> Database::AttachTableRebuild(const std::string& name,
                                            Schema schema,
                                            TableOptions options,
                                            PageId heap_first_page) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  NBLB_ASSIGN_OR_RETURN(auto table,
                        Table::AttachRebuild(bp_.get(), std::move(schema),
                                             options, heap_first_page));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

Status Database::Checkpoint() {
  NBLB_RETURN_NOT_OK(bp_->FlushAll());
  return disk_->Sync();
}

}  // namespace nblb
