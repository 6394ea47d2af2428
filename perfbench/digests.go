package main

// Recorded outputs. Regenerate the digest tables with -record-digests and
// the model with -gen-model; both are deterministic at any worker count.

// serveModelSHA256 is the sha256 of model/ml05.gbt.
const serveModelSHA256 = "d0d7285f5bf5f316fb8f07e3a21daa336b444dd5cb64ebde1c3b59fb581677c1"

// campaignDigests[v] is the campaign digest of seed variant v.
var campaignDigests = [numVariants]string{
	"e3bbd621abf091d50d88875426445452a63eabb5ae1771d5646612ef57364113",
	"71836f007663a2e926cf7c4093203bbac0e02a8f0e9e5bffcbe6b1f4c63e0675",
	"1286e4a1a3bf2320ed57cb25dc90712bf456880131a92268022a6adb6046968a",
	"46362522820cef097e012345e51b1c576e8fe21bc66332a83f1a1627e502167b",
	"488e2fa862c4e49e110bfacf04126e7a9dcb73729f3156ec9259a5dc85674cdd",
	"890a09cd10e8ac61207339deda1182a5dda4f15a5a04e7ca77b3a2ff953a9b7f",
	"5f9354be4bd244c583222ffe4e863afb7943b743efdd2fdc5722fd4b77ec77be",
	"159e86925d5e7306f426c7b9c1460820b29ae1f36b591c0954063a64f1de8a0a",
}

// fleetDigests[v] is the loadgen replay digest of seed variant v.
var fleetDigests = [numVariants]string{
	"b18f7f99824b11774690f1d02c73ef18474211b855dc419e2ec8af820f30e703",
	"848dd2ee133b35924de6d19f4ed4bfcc7a130c068493b8722d07cd84b1bbcd02",
	"9c073501f2f07f878b9a27962e3c5dc749ae807bfab810901ffdd3b78ac6660f",
	"f0c2c131c412e2985a92143a8cf2cf1bf6fd46d74d66adbb1980e0d5a51bb172",
	"712fd6a2736e7e9223adbb11cbe76c0d72e31fbebfe67a556394c3953f928709",
	"2274eaee16e948e2b1c7a44e5d4f4f60c68e5b6ab35b7599369ccb1364468db3",
	"ab9ae3f381949aa13f7e705c843401885b35887be830df73b8d876494025041d",
	"21cbd702ddec015c09980cdc8ba874910f4c81e614d27d063b7f2d920d640307",
}
