#include "graph/shape_inference.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace pimcomp {
namespace {

TEST(WindowExtent, Formula) {
  // floor((in + 2p - k)/s) + 1
  EXPECT_EQ(window_output_extent(224, 3, 1, 1, "t"), 224);
  EXPECT_EQ(window_output_extent(224, 7, 2, 3, "t"), 112);
  EXPECT_EQ(window_output_extent(112, 3, 2, 1, "t"), 56);
  EXPECT_EQ(window_output_extent(8, 2, 2, 0, "t"), 4);
  EXPECT_EQ(window_output_extent(5, 3, 2, 0, "t"), 2);
}

TEST(WindowExtent, KernelTooLargeThrows) {
  EXPECT_THROW(window_output_extent(4, 7, 1, 0, "t"), GraphError);
  EXPECT_NO_THROW(window_output_extent(4, 7, 1, 2, "t"));  // padding saves it
}

TEST(ShapeInference, ConvBasic) {
  GraphBuilder b("t", {3, 32, 32});
  const NodeId c = b.conv(b.input(), 16, 3, 1, 1);
  Graph g = b.build();
  EXPECT_EQ(g.node(c).output_shape, (TensorShape{16, 32, 32}));
  EXPECT_EQ(g.node(c).weight_params, 3 * 3 * 3 * 16);
  EXPECT_EQ(g.node(c).macs,
            static_cast<std::int64_t>(3 * 3 * 3 * 16) * 32 * 32);
}

TEST(ShapeInference, ConvStridedAndAsymmetric) {
  GraphBuilder b("t", {8, 17, 17});
  const NodeId c = b.conv_rect(b.input(), 12, 1, 7, 1, 0, 3);
  Graph g = b.build();
  // 1x7 kernel, pad (0,3): height unchanged formulaically, width preserved.
  EXPECT_EQ(g.node(c).output_shape, (TensorShape{12, 17, 17}));
  EXPECT_EQ(g.node(c).weight_params, 1 * 7 * 8 * 12);
}

TEST(ShapeInference, FCFlattensInput) {
  GraphBuilder b("t", {4, 5, 5});
  const NodeId f = b.fc(b.input(), 10);
  Graph g = b.build();
  EXPECT_EQ(g.node(f).output_shape, (TensorShape{10, 1, 1}));
  EXPECT_EQ(g.node(f).weight_params, 4 * 5 * 5 * 10);
}

TEST(ShapeInference, PoolVariants) {
  GraphBuilder b("t", {8, 32, 32});
  const NodeId mp = b.max_pool(b.input(), 2, 2);
  const NodeId ap = b.avg_pool(mp, 3, 1, 1);
  const NodeId gp = b.global_avg_pool(ap);
  Graph g = b.build();
  EXPECT_EQ(g.node(mp).output_shape, (TensorShape{8, 16, 16}));
  EXPECT_EQ(g.node(ap).output_shape, (TensorShape{8, 16, 16}));
  EXPECT_EQ(g.node(gp).output_shape, (TensorShape{8, 1, 1}));
}

TEST(ShapeInference, ConcatSumsChannels) {
  GraphBuilder b("t", {3, 16, 16});
  const NodeId a = b.conv(b.input(), 4, 1);
  const NodeId c = b.conv(b.input(), 6, 1);
  const NodeId cat = b.concat({a, c});
  Graph g = b.build();
  EXPECT_EQ(g.node(cat).output_shape, (TensorShape{10, 16, 16}));
}

TEST(ShapeInference, ConcatRejectsSpatialMismatch) {
  GraphBuilder b("t", {3, 16, 16});
  const NodeId a = b.conv(b.input(), 4, 1);
  const NodeId c = b.conv(b.input(), 4, 3, 2, 1);  // 8x8
  b.concat({a, c});
  EXPECT_THROW(b.build(), GraphError);
}

TEST(ShapeInference, EltwiseRequiresIdenticalShapes) {
  GraphBuilder b("t", {3, 16, 16});
  const NodeId a = b.conv(b.input(), 4, 1);
  const NodeId c = b.conv(b.input(), 6, 1);
  b.eltwise_add(a, c);
  EXPECT_THROW(b.build(), GraphError);
}

TEST(ShapeInference, FlattenAndSoftmax) {
  GraphBuilder b("t", {4, 3, 3});
  const NodeId f = b.flatten(b.input());
  const NodeId s = b.softmax(f);
  Graph g = b.build();
  EXPECT_EQ(g.node(f).output_shape, (TensorShape{36, 1, 1}));
  EXPECT_EQ(g.node(s).output_shape, (TensorShape{36, 1, 1}));
}

struct ConvCase {
  int in, k, s, p;
};

class ConvShapeSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapeSweep, MatchesReferenceFormula) {
  const ConvCase c = GetParam();
  GraphBuilder b("t", {2, c.in, c.in});
  const NodeId conv = b.conv(b.input(), 3, c.k, c.s, c.p);
  Graph g = b.build();
  const int expected = (c.in + 2 * c.p - c.k) / c.s + 1;
  EXPECT_EQ(g.node(conv).output_shape.height, expected);
  EXPECT_EQ(g.node(conv).output_shape.width, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvShapeSweep,
    ::testing::Values(ConvCase{32, 3, 1, 1}, ConvCase{32, 3, 2, 1},
                      ConvCase{224, 7, 2, 3}, ConvCase{8, 1, 1, 0},
                      ConvCase{15, 5, 3, 2}, ConvCase{64, 11, 4, 2},
                      ConvCase{28, 5, 1, 2}));

}  // namespace
}  // namespace pimcomp
