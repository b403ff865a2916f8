#include "dnn/network.h"

#include "support/logging.h"

namespace ft {

int
Network::numConvLayers() const
{
    int n = 0;
    for (const auto &l : layers)
        n += l.kind == LayerSpec::Kind::Conv;
    return n;
}

std::vector<std::vector<int64_t>>
layerShapes(const Network &net)
{
    std::vector<std::vector<int64_t>> shapes;
    std::vector<int64_t> cur = net.inputShape;
    FT_ASSERT(cur.size() == 4, "network input must be NCHW");
    for (const auto &l : net.layers) {
        switch (l.kind) {
          case LayerSpec::Kind::Conv: {
            int64_t oh =
                (cur[2] + 2 * l.padding - l.kernel) / l.stride + 1;
            int64_t ow =
                (cur[3] + 2 * l.padding - l.kernel) / l.stride + 1;
            cur = {cur[0], l.outChannels, oh, ow};
            break;
          }
          case LayerSpec::Kind::MaxPool: {
            int64_t oh = (cur[2] - l.kernel) / l.stride + 1;
            int64_t ow = (cur[3] - l.kernel) / l.stride + 1;
            cur = {cur[0], cur[1], oh, ow};
            break;
          }
          case LayerSpec::Kind::Dense:
            cur = {cur[0], l.units};
            break;
        }
        shapes.push_back(cur);
    }
    return shapes;
}

} // namespace ft
