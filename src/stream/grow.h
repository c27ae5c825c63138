#ifndef RETIA_STREAM_GROW_H_
#define RETIA_STREAM_GROW_H_

// Model lifecycle helpers for the streaming path: copying a live
// RetiaModel into a frozen publishable snapshot, and growing its entity
// vocabulary when the ingest policy admits unseen entities.

#include <cstdint>
#include <memory>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "serve/engine.h"
#include "tkg/dataset.h"

namespace retia::stream {

// Deep copy (core::RetiaModel::Clone), returned in eval mode and ready for
// the frozen serving entry points. The clone is built without drawing an
// initialization, and then gets copies, tensor by tensor, of every
// parameter, the ablation protocol's frozen tables (the entity table when
// !use_eam, the relation table when !use_ram, the EAM's private relations
// when !use_tim) and the static-constraint entity-type table with its
// type count. Nothing goes through the checkpoint encoding. The clone's
// RNG is freshly seeded — irrelevant for serving, which is rng-free.
std::unique_ptr<core::RetiaModel> CloneModel(const core::RetiaModel& model);

// A frozen serving snapshot of `model` over `dataset`: CloneModel(model),
// a copy of the dataset, and a GraphCache over that copy. The snapshot
// shares no mutable state with the caller's live model and dataset: the
// dataset copy shares the immutable fact buckets (one pointer per
// timestamp), and, when `graphs` is given, the new cache adopts its built
// graphs (GraphCache::Adopt, checked per entry), so a query whose history
// `graphs` already built builds no graph. Later appends to, or evictions
// from, the caller's dataset and cache leave the snapshot unchanged.
serve::EngineSnapshot FrozenSnapshot(const core::RetiaModel& model,
                                     const tkg::TkgDataset& dataset,
                                     const graph::GraphCache* graphs = nullptr);

// Grows the entity vocabulary to `new_num_entities` (>= the current count)
// by rebuilding the model with a larger E_0 table: rows [0, old_n) are
// copied bit-exactly from `model`, rows [old_n, new_num_entities) keep the
// grown model's own Xavier-uniform initialization (drawn from its seeded
// RNG — the documented unseen-entity init, docs/STREAMING.md). Every
// entity-count-independent parameter is copied bit-exactly.
//
// Preconditions (CHECK-enforced): the model must use the trainable entity
// channel (config.use_eam) and must not carry a static-constraint type
// table — both hold frozen per-entity state that cannot be grown
// meaningfully online; such models must reject unseen entities instead.
std::unique_ptr<core::RetiaModel> GrowEntityVocab(
    const core::RetiaModel& model, int64_t new_num_entities);

}  // namespace retia::stream

#endif  // RETIA_STREAM_GROW_H_
