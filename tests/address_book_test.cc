#include "net/address_book.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pgrid {
namespace net {
namespace {

TEST(AddressBookTest, SelfIsIdZero) {
  AddressBook book("self:1");
  EXPECT_EQ(book.size(), 1u);
  EXPECT_EQ(book.Find("self:1"), 0u);
  EXPECT_EQ(book.Name(0), "self:1");
}

TEST(AddressBookTest, IdsAreDenseAndInterningIsIdempotent) {
  AddressBook book("self:1");
  EXPECT_EQ(book.Intern("b:2"), 1u);
  EXPECT_EQ(book.Intern("c:3"), 2u);
  EXPECT_EQ(book.Intern("b:2"), 1u);
  EXPECT_EQ(book.Intern("self:1"), 0u);
  EXPECT_EQ(book.Intern("d:4"), 3u);
  EXPECT_EQ(book.size(), 4u);
  EXPECT_EQ(book.names(), (std::vector<std::string>{"self:1", "b:2", "c:3", "d:4"}));
}

TEST(AddressBookTest, LooksUpBothWays) {
  AddressBook book("self:1");
  for (const char* a : {"x:1", "y:2", "z:3"}) book.Intern(a);
  for (PeerId id = 0; id < book.size(); ++id) EXPECT_EQ(book.Find(book.Name(id)), id);
  EXPECT_EQ(book.Find("never:0"), kInvalidPeer);
  EXPECT_EQ(book.size(), 4u);  // Find does not intern
}

TEST(AddressBookTest, FromNamesRebuildsTheSameIds) {
  AddressBook book("self:1");
  for (const char* a : {"x:1", "y:2", "z:3"}) book.Intern(a);
  Result<AddressBook> rebuilt = AddressBook::FromNames(book.names(), "self:1");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->names(), book.names());
  EXPECT_EQ(rebuilt->Find("y:2"), 2u);
  EXPECT_EQ(rebuilt->Intern("new:4"), 4u);
}

TEST(AddressBookTest, FromNamesRejectsATableOfAnotherNodeOrWithDuplicates) {
  EXPECT_FALSE(AddressBook::FromNames({}, "self:1").ok());
  EXPECT_FALSE(AddressBook::FromNames({"other:1", "self:1"}, "self:1").ok());
  EXPECT_FALSE(AddressBook::FromNames({"self:1", "x:1", "x:1"}, "self:1").ok());
  EXPECT_FALSE(AddressBook::FromNames({"self:1", "self:1"}, "self:1").ok());
}

}  // namespace
}  // namespace net
}  // namespace pgrid
