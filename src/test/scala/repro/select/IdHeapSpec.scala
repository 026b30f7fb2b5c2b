package repro.select

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens

/** The tournament tree in its role as the greedies' id heap: pop is `top`
  * then `remove`, push is `insert` and a re-key is `update`, mixed in any
  * order. TournamentTreeSpec covers the build and the rejected calls.
  */
class IdHeapSpec extends AnyFunSuite {
  import TournamentTreeSpec._

  test("any interleaving of push and pop with tied keys pops in Key.better order") {
    // Each step pops (0), inserts one popped id back under a fresh key (1),
    // as P-tree's BatchInsert does, or re-keys one id in the tree in place
    // (2), as CELF and RIS max coverage do.
    val cases = for {
      n <- Gen.choose(1, 80)
      key <- tiedKeys(n)
      steps <- Gen.listOf(Gen.zip(Gen.choose(0, 2), Gen.choose(0L, 3L), Gen.choose(0, 1000)))
    } yield (key, steps)
    val prop = Prop.forAllNoShrink(cases) { case (key, steps) =>
      val tree = new TournamentTree(key)
      val live = scala.collection.mutable.ArrayBuffer.from(key.indices)
      val out = scala.collection.mutable.ArrayBuffer.empty[Int]
      steps.forall { case (op, newKey, pick) =>
        if (op == 1 && out.nonEmpty) {
          val v = out.remove(pick % out.size)
          key(v) = newKey
          tree.insert(v)
          live += v
          tree.size == live.size
        } else if (op == 2 && live.nonEmpty) {
          val v = live(pick % live.size)
          key(v) = newKey
          tree.update(v)
          tree.top == refSort(live.toSeq, key).head
        } else if (live.nonEmpty) {
          val expect = refSort(live.toSeq, key).head
          val got = pop(tree)
          live -= got
          out += got
          got == expect
        } else tree.size == 0
      } :| s"keys ${key.mkString(",")} steps ${steps.mkString(",")}"
    }
    TestGens.check(prop, 300)
  }
}
