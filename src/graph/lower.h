/**
 * @file
 * Lowering a fusion group's heavy anchor to the tensor IR.
 *
 * The explorers tune mini-graphs, not DAG nodes, so each group's anchor
 * is rebuilt as an ops/ mini-graph over placeholders named after its DAG
 * producers. The lowered anchor depends only on the anchor's shape and
 * parameters (same builder, same space, same tuning-cache key in every
 * partition), which is what makes fusion a pure regrouping: the
 * schedule search is untouched, only what happens to the anchor's
 * output changes.
 */
#ifndef FLEXTENSOR_GRAPH_LOWER_H
#define FLEXTENSOR_GRAPH_LOWER_H

#include <utility>
#include <vector>

#include "exec/buffer.h"
#include "graph/fused_exec.h"

namespace ft {
namespace graph {

/** A heavy anchor lowered to IR. */
struct LoweredAnchor
{
    /** Root of the anchor's mini-graph (the conv/dense compute node). */
    Tensor output;
    /** (DAG producer id, placeholder) per anchor operand, in order. */
    std::vector<std::pair<int, Tensor>> operands;
};

/** Lower the heavy DAG node `anchorId` (conv or dense) to IR. */
LoweredAnchor lowerAnchor(const ComputeDag &dag, int anchorId);

/**
 * Bind the anchor's placeholders to DAG input data: copies each operand
 * tensor from `buffers` into an IR Buffer (dense often reads a 4D
 * activation through a flattened 2D placeholder; the row-major data is
 * shared verbatim).
 */
BufferMap bindOperands(const LoweredAnchor &lowered,
                       const DagBuffers &buffers);

/**
 * Copy the anchor's IR output buffer (e.g. produced by a scheduled
 * nest) into the DAG buffer of node `anchorId`, so fused and unfused
 * executions share one anchor result bit-for-bit.
 */
void adoptAnchorOutput(const LoweredAnchor &lowered,
                       const BufferMap &irBuffers, int anchorId,
                       const ComputeDag &dag, DagBuffers &buffers);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_LOWER_H
