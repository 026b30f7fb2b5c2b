package repro.select

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens

class TournamentTreeSpec extends AnyFunSuite {
  import TournamentTreeSpec._

  test("the build pops every id in Key.better order") {
    val prop = Prop.forAllNoShrink(Gen.choose(0, 200).flatMap(tiedKeys)) { key =>
      val tree = new TournamentTree(key)
      val drained = Seq.fill(key.length)(pop(tree))
      (drained == refSort(key.indices, key)) :| s"keys ${key.mkString(",")}: popped ${drained.mkString(",")}"
    }
    TestGens.check(prop, 200)
  }

  test("top and pop of an empty heap are rejected") {
    val tree = new TournamentTree(Array(5L))
    assert(pop(tree) == 0 && tree.size == 0)
    intercept[IllegalArgumentException](tree.top)
    intercept[IllegalArgumentException](tree.remove(0))
    intercept[IllegalArgumentException](tree.update(0))
    tree.insert(0)
    intercept[IllegalArgumentException](tree.insert(0))
    // Ids beyond n are rejected, padding leaves included (n = 1 has none;
    // n = 3 has one, at id 3).
    intercept[IllegalArgumentException](tree.insert(1))
    intercept[IllegalArgumentException](new TournamentTree(new Array[Long](3)).insert(3))
  }

  test("leaf count rounds n up to a power of two") {
    assert(TournamentTree.leafCount(0) == 1)
    assert(TournamentTree.leafCount(1) == 1)
    assert(TournamentTree.leafCount(3) == 4)
    assert(TournamentTree.leafCount(1 << 29) == (1 << 29))
  }
}

object TournamentTreeSpec {

  /** Reference order: best-first (score desc, id asc). */
  def refSort(ids: Seq[Int], key: Array[Long]): Seq[Int] =
    ids.sortWith((a, b) => Key.better(key(a), a, key(b), b))

  /** Keys from a few distinct values, so that most compare on the id. */
  def tiedKeys(n: Int): Gen[Array[Long]] =
    Gen.listOfN(n, Gen.choose(0L, 3L)).map(_.toArray)

  /** Takes the best id out of the tree and returns it. */
  def pop(tree: TournamentTree): Int = {
    val v = tree.top
    tree.remove(v)
    v
  }
}
