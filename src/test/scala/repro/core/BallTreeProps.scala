package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite: Ball-tree and bounded-kNN invariants under
  * generated inputs (run by sbt's native ScalaCheck framework).
  */
object BallTreeProps extends Properties("BallTree") {

  private val dataGen: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(2, 300)
    d <- Gen.choose(1, 4)
    rows <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-50.0, 50.0)))
  } yield rows.map(_.toArray).toArray

  private val fGen: Gen[Int] = Gen.choose(2, 32)

  property("covers every point exactly once") = Prop.forAll(dataGen, fGen) { (data, f) =>
    val t = BallTree.build(data, f)
    Trees.covered(t, t.root).sorted == data.indices.toSeq
  }

  property("radius bounds all covered points") = Prop.forAll(dataGen, fGen) { (data, f) =>
    val t = BallTree.build(data, f)
    def ok(n: BallNode): Boolean = {
      Trees.covered(t, n).forall(p => Vec.dist(n.pivot, data(p)) <= n.radius + 1e-9) &&
        (n.isLeaf || (ok(n.left) && ok(n.right)))
    }
    ok(t.root)
  }

  property("bounded 2-NN equals brute force under a valid ub") = Prop.forAll(dataGen) { data =>
    Prop.propBoolean(data.length >= 2) ==> {
      val idx = new CentroidIndex(data, 4, new DistanceCounter)
      val q = data(0).indices.map(i => data(0)(i) + 1.2345).toArray
      var i1 = -1; var d1 = Double.PositiveInfinity
      var i2 = -1; var d2 = Double.PositiveInfinity
      data.indices.foreach { j =>
        val t = Vec.dist(q, data(j))
        if (t < d1) { i2 = i1; d2 = d1; i1 = j; d1 = t }
        else if (t < d2) { i2 = j; d2 = t }
      }
      val b = idx.nearest(q, 2, d2 + 1e-9, new Best2(0.0))
      b.i1 == i1 && b.i2 == i2 && math.abs(b.d2 - d2) < 1e-9
    }
  }

  property("stats node counts are consistent") = Prop.forAll(dataGen, fGen) { (data, f) =>
    val t = BallTree.build(data, f)
    val s = BallTree.stats(t.root)
    s.leafNodes + s.internalNodes == t.nodeCount && s.internalNodes == s.leafNodes - 1
  }
}
