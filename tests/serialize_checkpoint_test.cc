// Tests for tensor serialization and the fault-tolerance checkpoint module.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/datasets.h"
#include "src/dist/checkpoint.h"
#include "src/models/gcn.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/serialize.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

TEST(SerializeTest, RoundTripThroughStream) {
  Rng rng(1);
  Tensor t = RandomTensor(17, 9, rng);
  std::stringstream ss;
  SaveTensor(t, ss);
  Tensor loaded = LoadTensor(ss);
  EXPECT_TRUE(AllClose(t, loaded, 0.0f));
}

TEST(SerializeTest, EmptyTensorRoundTrip) {
  Tensor t(0, 5);
  std::stringstream ss;
  SaveTensor(t, ss);
  Tensor loaded = LoadTensor(ss);
  EXPECT_EQ(loaded.rows(), 0);
  EXPECT_EQ(loaded.cols(), 5);
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss("NOPE-this-is-not-a-tensor");
  EXPECT_THROW(LoadTensor(ss), CheckError);
}

TEST(SerializeTest, TruncatedPayloadThrows) {
  Rng rng(2);
  Tensor t = RandomTensor(8, 8, rng);
  std::stringstream ss;
  SaveTensor(t, ss);
  std::string raw = ss.str();
  raw.resize(raw.size() / 2);
  std::stringstream truncated(raw);
  EXPECT_THROW(LoadTensor(truncated), CheckError);
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(3);
  Tensor t = RandomTensor(4, 6, rng);
  const std::string path = ::testing::TempDir() + "/flexgraph_tensor_test.bin";
  SaveTensorFile(t, path);
  Tensor loaded = LoadTensorFile(path);
  EXPECT_TRUE(AllClose(t, loaded, 0.0f));
  std::remove(path.c_str());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per case: ctest runs the cases of this fixture in parallel.
    path_ = ::testing::TempDir() + "/flexgraph_checkpoint_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".ckpt";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointTest, SaveLoadRestoresParameters) {
  Rng rng(4);
  GcnConfig config;
  config.in_dim = 16;
  config.num_classes = 4;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, /*epoch=*/12);

  // Clobber the parameters, then restore.
  std::vector<Variable> params = model.Parameters();
  Tensor original_w = params[0].value();
  params[0].mutable_value().Zero();

  const CheckpointInfo info = LoadCheckpoint(path_, model);
  EXPECT_EQ(info.epoch, 12);
  EXPECT_EQ(info.model_name, "gcn");
  EXPECT_EQ(info.num_parameters, 4u);
  EXPECT_TRUE(AllClose(model.Parameters()[0].value(), original_w, 0.0f));
}

TEST_F(CheckpointTest, PeekReadsMetadataOnly) {
  Rng rng(5);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, 99);
  const CheckpointInfo info = PeekCheckpoint(path_);
  EXPECT_EQ(info.epoch, 99);
  EXPECT_EQ(info.model_name, "gcn");
}

TEST_F(CheckpointTest, ArchitectureMismatchThrows) {
  Rng rng(6);
  GcnConfig small;
  small.in_dim = 8;
  small.num_classes = 2;
  GnnModel model = MakeGcnModel(small, rng);
  SaveCheckpoint(path_, model, 1);

  GcnConfig bigger;
  bigger.in_dim = 16;  // different W shape
  bigger.num_classes = 2;
  GnnModel other = MakeGcnModel(bigger, rng);
  EXPECT_THROW(LoadCheckpoint(path_, other), CheckError);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  GcnConfig config;
  Rng rng(7);
  GnnModel model = MakeGcnModel(config, rng);
  EXPECT_THROW(LoadCheckpoint("/nonexistent/dir/x.ckpt", model), CheckError);
}

TEST_F(CheckpointTest, NoTempFileLeftBehindAfterSave) {
  Rng rng(10);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, 1);
  EXPECT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointTest, TruncatedFileRejectedByLoadAndPeek) {
  Rng rng(11);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, 1);

  // Cut the file mid-payload: Load must throw, Validate must return nullopt.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW(LoadCheckpoint(path_, model), CheckError);
  EXPECT_FALSE(ValidateCheckpoint(path_).has_value());

  // Cut it mid-header: Peek must throw too.
  std::filesystem::resize_file(path_, 10);
  EXPECT_THROW(PeekCheckpoint(path_), CheckError);
}

TEST_F(CheckpointTest, BadMagicRejected) {
  {
    std::ofstream ofs(path_, std::ios::binary);
    ofs << "not a checkpoint at all, just bytes";
  }
  GcnConfig config;
  Rng rng(12);
  GnnModel model = MakeGcnModel(config, rng);
  EXPECT_THROW(PeekCheckpoint(path_), CheckError);
  EXPECT_THROW(LoadCheckpoint(path_, model), CheckError);
  EXPECT_FALSE(ValidateCheckpoint(path_).has_value());
}

TEST_F(CheckpointTest, PayloadBitFlipCaughtByCrc) {
  Rng rng(13);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, 1);

  // Flip one bit near the end of the payload; the header stays intact, so
  // only the CRC can catch this.
  const auto size = std::filesystem::file_size(path_);
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(size - 5));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x1);
  f.seekp(static_cast<std::streamoff>(size - 5));
  f.write(&byte, 1);
  f.close();

  EXPECT_THROW(LoadCheckpoint(path_, model), CheckError);
  EXPECT_FALSE(ValidateCheckpoint(path_).has_value());
  EXPECT_NO_THROW(PeekCheckpoint(path_));  // header-only read still works
}

TEST_F(CheckpointTest, TrailingJunkRejected) {
  Rng rng(14);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);
  SaveCheckpoint(path_, model, 1);
  {
    std::ofstream ofs(path_, std::ios::binary | std::ios::app);
    ofs << "extra";
  }
  EXPECT_THROW(LoadCheckpoint(path_, model), CheckError);
  EXPECT_FALSE(ValidateCheckpoint(path_).has_value());
}

TEST_F(CheckpointTest, ResumeContinuesTraining) {
  // Train 5 epochs, checkpoint, train a fresh run resumed from the
  // checkpoint: the restored model must start from the saved loss level, not
  // from scratch.
  Dataset ds = MakeRedditLike(0.04, 8);
  Rng rng(8);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.1f);
  float loss_after_5 = 0.0f;
  for (int e = 0; e < 5; ++e) {
    loss_after_5 = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng).loss;
  }
  SaveCheckpoint(path_, model, 4);

  Rng rng2(9);
  GnnModel resumed = MakeGcnModel(config, rng2);  // different init
  LoadCheckpoint(path_, resumed);
  Engine engine2(ds.graph);
  const float first_resumed_loss =
      engine2.TrainEpoch(resumed, ds.features, ds.labels, opt, rng2).loss;
  EXPECT_LE(first_resumed_loss, loss_after_5 * 1.5f);
}

}  // namespace
}  // namespace flexgraph
