// Umbrella header: the public API of nblb.
//
// Most applications only need exec::Database / exec::Table (see
// examples/quickstart.cpp); the remaining headers expose the subsystems for
// direct use and experimentation.

#pragma once

// Public facade.
#include "exec/database.h"
#include "exec/table.h"

// Schema / types.
#include "catalog/key_codec.h"
#include "catalog/row_codec.h"
#include "catalog/schema.h"
#include "catalog/type.h"
#include "catalog/value.h"

// Core contribution: the B+Tree index cache (§2.1).
#include "cache/cache_geometry.h"
#include "cache/csn_manager.h"
#include "cache/field_advisor.h"
#include "cache/index_cache.h"
#include "cache/predicate_log.h"
#include "index/btree.h"
#include "index/btree_page.h"

// Hot/cold partitioning (§3.1).
#include "partition/access_tracker.h"
#include "partition/clusterer.h"
#include "partition/forwarding_table.h"
#include "partition/partitioned_table.h"

// Encoding advisor (§4.1).
#include "encoding/advisor.h"
#include "encoding/bitpack.h"
#include "encoding/column_stats.h"
#include "encoding/dict.h"
#include "encoding/timestamp.h"
#include "encoding/type_inference.h"
#include "encoding/waste_report.h"

// Semantic IDs (§4.2).
#include "semid/reduction.h"
#include "semid/routing.h"
#include "semid/semantic_id.h"

// Observability: metrics registry, sampled tracing, flight recorder.
#include "obs/event_ring.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Sharded serving layer.
#include "shard/request.h"
#include "shard/shard.h"
#include "shard/shard_stats.h"
#include "shard/sharded_engine.h"

// Storage engine.
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/latency_model.h"
#include "storage/page.h"
#include "storage/rid.h"

// Workloads and simulation.
#include "sim/micro_sim.h"
#include "workload/trace.h"
#include "workload/wikipedia.h"
