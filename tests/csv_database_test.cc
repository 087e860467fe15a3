// CSV + schema-spec database loading (the bring-your-own-data path).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "s4/s4.h"
#include "storage/csv_database.h"

namespace s4 {
namespace {

class CsvDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test process: ctest runs the cases of this
    // fixture in parallel, and a shared one lets one case's TearDown
    // delete the files another case is reading.
    dir_ = std::filesystem::temp_directory_path() /
           ("s4_csv_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    Write("albums.csv",
          "AlbumId,Title,ArtistId\n"
          "1,Abbey Road,1\n"
          "2,Kind of Blue,2\n");
    Write("artists.csv",
          "ArtistId,Name,CountryId\n"
          "1,The Beatles,1\n"
          "2,Miles Davis,2\n");
    Write("countries.csv",
          "CountryId,Country\n"
          "1,England\n"
          "2,USA\n");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Write(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::filesystem::path dir_;
};

constexpr const char* kSchema =
    "# music demo\n"
    "table Album albums.csv AlbumId\n"
    "table Artist artists.csv ArtistId\n"
    "table Country countries.csv CountryId\n"
    "fk Album.ArtistId -> Artist\n"
    "fk Artist.CountryId -> Country\n";

TEST_F(CsvDatabaseTest, LoadsAndSearches) {
  auto db = LoadCsvDatabase(dir_.string(), kSchema);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->NumTables(), 3);
  EXPECT_EQ(db->foreign_keys().size(), 2u);
  // Key-like columns inferred as INT64, others as TEXT.
  const Table* album = db->FindTable("Album");
  EXPECT_EQ(album->column(album->ColumnIndex("Title")).type,
            ColumnType::kText);
  EXPECT_EQ(album->column(album->ColumnIndex("ArtistId")).type,
            ColumnType::kInt64);

  auto system = S4System::Create(*db);
  ASSERT_TRUE(system.ok());
  auto result = (*system)->Search({{"Beatles", "Abbey"}});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->topk.empty());
  EXPECT_NE(result->topk[0].query.ToSql(*db).find("JOIN"),
            std::string::npos);
}

TEST_F(CsvDatabaseTest, SchemaFromFile) {
  Write("schema.txt", kSchema);
  auto db = LoadCsvDatabaseFromFile(dir_.string(),
                                    (dir_ / "schema.txt").string());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->NumTables(), 3);
}

TEST_F(CsvDatabaseTest, Rejections) {
  EXPECT_FALSE(LoadCsvDatabase(dir_.string(), "nonsense line\n").ok());
  EXPECT_FALSE(
      LoadCsvDatabase(dir_.string(),
                      "table Missing missing.csv MissingId\n")
          .ok());
  EXPECT_FALSE(
      LoadCsvDatabase(dir_.string(), "table Album albums.csv Nope\n").ok());
  EXPECT_FALSE(LoadCsvDatabase(dir_.string(),
                               "table Album albums.csv AlbumId\n"
                               "fk Album.Bad -> Album\n")
                   .ok());
  // Dangling FK caught by referential check.
  Write("bad.csv",
        "BadId,ArtistId\n"
        "1,999\n");
  EXPECT_FALSE(LoadCsvDatabase(dir_.string(),
                               "table Artist artists.csv ArtistId\n"
                               "table Bad bad.csv BadId\n"
                               "fk Bad.ArtistId -> Artist\n")
                   .ok());
}

}  // namespace
}  // namespace s4
