#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "por/io/master_io.hpp"
#include "por/vmpi/runtime.hpp"

namespace {

using namespace por;
namespace fs = std::filesystem;

class MasterIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("por_master_io_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST(BlockPartition, SharesSumToTotal) {
  for (std::size_t m : {0u, 1u, 7u, 100u}) {
    for (int p : {1, 2, 3, 7}) {
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) total += io::block_share(m, p, r);
      EXPECT_EQ(total, m) << "m=" << m << " p=" << p;
    }
  }
}

TEST(BlockPartition, SharesAreBalanced) {
  for (int r = 0; r < 4; ++r) {
    const std::size_t share = io::block_share(10, 4, r);
    EXPECT_GE(share, 2u);
    EXPECT_LE(share, 3u);
  }
}

TEST(BlockPartition, BeginsAreCumulative) {
  EXPECT_EQ(io::block_begin(10, 4, 0), 0u);
  EXPECT_EQ(io::block_begin(10, 4, 1), 3u);  // rank 0 gets 3 (10 % 4 = 2)
  EXPECT_EQ(io::block_begin(10, 4, 2), 6u);
  EXPECT_EQ(io::block_begin(10, 4, 3), 8u);
}

TEST_F(MasterIoTest, OrientationsFollowSamePartition) {
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < 7; ++i) {
    records.push_back(io::ViewOrientation{
        i, em::Orientation{static_cast<double>(i), 0, 0}, 0, 0});
  }
  io::write_orientations(path("orient.txt"), records);

  const int p = 3;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    const auto mine = io::master_read_orientations(comm, path("orient.txt"));
    const std::size_t begin = io::block_begin(7, p, comm.rank());
    ASSERT_EQ(mine.size(), io::block_share(7, p, comm.rank()));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].view_index, begin + i);
    }
  });
}

TEST_F(MasterIoTest, WriteGathersInGlobalOrder) {
  const int p = 3;
  const std::size_t m = 8;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    const std::size_t begin = io::block_begin(m, p, comm.rank());
    const std::size_t share = io::block_share(m, p, comm.rank());
    std::vector<io::ViewOrientation> mine;
    for (std::size_t i = 0; i < share; ++i) {
      mine.push_back(io::ViewOrientation{
          begin + i, em::Orientation{static_cast<double>(begin + i), 0, 0},
          0, 0});
    }
    io::master_write_orientations(comm, path("out.txt"), mine, "test");
  });
  const auto back = io::read_orientations(path("out.txt"));
  ASSERT_EQ(back.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(back[i].view_index, i);
    EXPECT_DOUBLE_EQ(back[i].orientation.theta, static_cast<double>(i));
  }
}

}  // namespace
